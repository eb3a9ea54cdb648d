// Package snapshot persists the queryable products of an analysis run
// as a versioned, compact binary artifact: the per-plane relationship
// tables, the per-plane link sets with their path visibility, the
// hybrid link list, and the headline statistics (coverage, census,
// visibility, valley). A snapshot is what the batch pipeline exports
// and what the serving layer (internal/serve, cmd/hybridserve) loads,
// indexes, and hot-reloads — classification results become a reusable
// dataset instead of an in-process struct that dies with the run.
//
// # Wire format (version 1)
//
//	magic   "HYBS"                      4 bytes
//	version uint16 big-endian           currently 1
//	flags   uint8                       bit 0: payload is gzip-compressed
//	payload sections, in order:
//	  rel4, rel6      each: uvarint n, then n × (uvarint lo, uvarint hi, byte rel)
//	  links4, links6  each: uvarint n, then n × (uvarint lo, uvarint hi, uvarint visibility)
//	  hybrids         uvarint n, then n × (uvarint lo, uvarint hi,
//	                  byte v4, byte v6, byte class, uvarint visibility)
//	  coverage        7 × uvarint
//	  census          uvarint dualClassified, uvarint hybrid,
//	                  uvarint k, then k × (byte class, uvarint count)
//	  visibility      2 × uvarint, 2 × uint64 big-endian (Float64bits)
//	  valley          5 × uvarint
//	trailer "SBYH"                      4 bytes (truncation sentinel)
//
// Table and link entries are sorted by canonical key; the hybrid list
// keeps its visibility ordering. Decoding validates the magic, rejects
// versions newer than this package writes (forward compatibility is a
// reader upgrade, never a silent misparse), bounds every count, and
// wraps every failure in a descriptive error — corrupted or truncated
// input returns an error, never panics.
//
// Format version 2 — the fixed-width little-endian layout built for
// mmap serving — is documented and implemented in format2.go. Read
// decodes both versions forever; Encode keeps writing version 1 (the
// portable interchange form), EncodeV2/WriteFileV2 write version 2,
// and Map serves a version-2 file in place without a decode pass.
package snapshot

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"hybridrel/internal/asrel"
	"hybridrel/internal/core"
	"hybridrel/internal/intern"
	"hybridrel/internal/valley"
)

const (
	// Version is the format version this package writes.
	Version = 1

	magic   = "HYBS"
	trailer = "SBYH"

	// flagGzip marks a gzip-compressed payload.
	flagGzip = 1 << 0

	// maxCount bounds every decoded element count; a corrupted varint
	// decoding to an implausible length fails fast instead of OOMing.
	maxCount = 1 << 27

	// allocCap bounds speculative pre-allocation while decoding, so a
	// corrupt count within maxCount still cannot grab gigabytes up front.
	allocCap = 1 << 16
)

// Link is one observed AS link of a plane with its path visibility
// (how many unique paths of that plane traverse it).
type Link struct {
	Key        asrel.LinkKey
	Visibility int
}

// Snapshot is the decoded artifact: every queryable product of a run.
// The zero value is not useful; build one with Capture or Read.
type Snapshot struct {
	// Rel4 / Rel6 are the recovered per-plane relationship tables in
	// their interned flat form: sorted, binary-searchable, and encoded
	// or decoded as one in-order scan with no map round-trip.
	Rel4, Rel6 *intern.Table
	// Links4 / Links6 are the observed per-plane link sets in canonical
	// order, each with its unique-path visibility.
	Links4, Links6 []Link
	// Hybrids is the detected hybrid link list, ordered by descending
	// IPv6 path visibility (the paper's Figure-2 ordering).
	Hybrids []core.HybridLink
	// Headline statistics, exactly as the Analysis accessors report them.
	Coverage   core.Coverage
	Census     core.HybridCensus
	Visibility core.Visibility
	Valley     valley.Stats

	// closer releases whatever backs the snapshot's slices — the file
	// mapping for a snapshot produced by Map, nothing for heap-decoded
	// snapshots. Managed through Close/AttachCloser.
	closer func() error
}

// Close releases the resources backing the snapshot: for a snapshot
// produced by Map that unmaps the file, after which the tables, link
// sections, and hybrid list must not be touched. For heap-decoded
// snapshots Close is a no-op. Close is idempotent but not safe for
// concurrent callers; the serving layer guarantees a single closer via
// refcounting.
func (s *Snapshot) Close() error {
	if s.closer == nil {
		return nil
	}
	fn := s.closer
	s.closer = nil
	return fn()
}

// AttachCloser registers fn to be invoked by Close, replacing any
// previous closer. Map uses it to hook munmap; tests use it to observe
// exactly when the serving layer releases a retired snapshot.
func AttachCloser(s *Snapshot, fn func() error) { s.closer = fn }

// Capture extracts a snapshot from an analysis, forcing every memoized
// derived product. The snapshot shares the analysis's relationship
// tables; treat both as read-only afterwards.
func Capture(a *core.Analysis) *Snapshot {
	s := &Snapshot{
		Rel4:       a.Rel4,
		Rel6:       a.Rel6,
		Hybrids:    a.Hybrids(),
		Coverage:   a.Coverage(),
		Census:     a.HybridCensus(),
		Visibility: a.HybridVisibility(),
		Valley:     a.ValleyReport(),
	}
	s.Links4 = make([]Link, 0, a.D4.NumLinks())
	a.D4.EachLink(func(k asrel.LinkKey, vis int) {
		s.Links4 = append(s.Links4, Link{Key: k, Visibility: vis})
	})
	s.Links6 = make([]Link, 0, a.D6.NumLinks())
	a.D6.EachLink(func(k asrel.LinkKey, vis int) {
		s.Links6 = append(s.Links6, Link{Key: k, Visibility: vis})
	})
	return s
}

// Write captures a and encodes it gzip-compressed. It is the standard
// export path: Read(Write(a)) reproduces every queryable product.
func Write(w io.Writer, a *core.Analysis) error {
	return Encode(w, Capture(a), true)
}

// WriteFile writes a's snapshot to path atomically: the bytes land in
// a temporary sibling first and are renamed into place, so a server
// hot-reloading the file never observes a half-written artifact.
func WriteFile(path string, a *core.Analysis) error {
	return encodeFile(path, Capture(a))
}

func encodeFile(path string, s *Snapshot) error {
	return encodeFileWith(path, s, func(w io.Writer, s *Snapshot) error {
		return Encode(w, s, true)
	})
}

func encodeFileWith(path string, s *Snapshot, enc func(io.Writer, *Snapshot) error) error {
	// A unique temp sibling keeps concurrent exports to the same path
	// from clobbering each other's in-progress bytes; Sync before the
	// rename so a crash can't leave a durable name over absent data.
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := enc(f, s); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("snapshot: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Bytes encodes the snapshot uncompressed into memory. The encoding
// is canonical (sorted tables, no timestamps), so equality of Bytes
// output is the repository-wide definition of "the same results" —
// the live-vs-batch and parallelism invariants all compare it.
func Bytes(s *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, s, false); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Encode serializes s. With compress set the payload is gzipped
// (typically 3-5× smaller); the header stays uncompressed either way
// so readers can sniff the format without touching zlib.
func Encode(w io.Writer, s *Snapshot, compress bool) error {
	bw := bufio.NewWriter(w)
	flags := byte(0)
	if compress {
		flags |= flagGzip
	}
	if _, err := bw.WriteString(magic); err != nil {
		return fmt.Errorf("snapshot: write header: %w", err)
	}
	var vbuf [2]byte
	binary.BigEndian.PutUint16(vbuf[:], Version)
	bw.Write(vbuf[:])
	bw.WriteByte(flags)

	payload := io.Writer(bw)
	var gz *gzip.Writer
	if compress {
		gz = gzip.NewWriter(bw)
		payload = gz
	}
	e := &encoder{w: bufio.NewWriter(payload)}
	e.table(s.Rel4)
	e.table(s.Rel6)
	e.links(s.Links4)
	e.links(s.Links6)
	e.hybrids(s.Hybrids)
	e.coverage(s.Coverage)
	e.census(s.Census)
	e.visibility(s.Visibility)
	e.valley(s.Valley)
	e.str(trailer)
	if e.err != nil {
		return fmt.Errorf("snapshot: encode: %w", e.err)
	}
	if err := e.w.Flush(); err != nil {
		return fmt.Errorf("snapshot: encode: %w", err)
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return fmt.Errorf("snapshot: gzip: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("snapshot: flush: %w", err)
	}
	return nil
}

// encoder writes the payload with a sticky error.
type encoder struct {
	w   *bufio.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

func (e *encoder) uvarint(v uint64) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *encoder) byte(b byte) {
	if e.err != nil {
		return
	}
	e.err = e.w.WriteByte(b)
}

func (e *encoder) str(s string) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.WriteString(s)
}

func (e *encoder) float(f float64) {
	if e.err != nil {
		return
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(f))
	_, e.err = e.w.Write(b[:])
}

func (e *encoder) key(k asrel.LinkKey) {
	e.uvarint(uint64(k.Lo))
	e.uvarint(uint64(k.Hi))
}

// table writes a frozen relationship table as one in-order scan — the
// interned form is already sorted by canonical key, so no key slice is
// materialized and nothing is re-sorted.
func (e *encoder) table(t *intern.Table) {
	if t == nil {
		e.uvarint(0)
		return
	}
	e.uvarint(uint64(t.Len()))
	t.Each(func(k asrel.LinkKey, r asrel.Rel) {
		e.key(k)
		e.byte(byte(r))
	})
}

func (e *encoder) links(ls []Link) {
	e.uvarint(uint64(len(ls)))
	for _, l := range ls {
		e.key(l.Key)
		e.uvarint(uint64(l.Visibility))
	}
}

func (e *encoder) hybrids(hs []core.HybridLink) {
	e.uvarint(uint64(len(hs)))
	for _, h := range hs {
		e.key(h.Key)
		e.byte(byte(h.V4))
		e.byte(byte(h.V6))
		e.byte(byte(h.Class))
		e.uvarint(uint64(h.Visibility))
	}
}

func (e *encoder) coverage(c core.Coverage) {
	for _, v := range []int{c.Paths6, c.Links6, c.Links4, c.DualStack,
		c.Classified6, c.ClassifiedDual, c.ClassifiedDualBoth} {
		e.uvarint(uint64(v))
	}
}

func (e *encoder) census(c core.HybridCensus) {
	e.uvarint(uint64(c.DualClassified))
	e.uvarint(uint64(c.Hybrid))
	classes := make([]asrel.HybridClass, 0, len(c.ByClass))
	for cl := range c.ByClass {
		classes = append(classes, cl)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	e.uvarint(uint64(len(classes)))
	for _, cl := range classes {
		e.byte(byte(cl))
		e.uvarint(uint64(c.ByClass[cl]))
	}
}

func (e *encoder) visibility(v core.Visibility) {
	e.uvarint(uint64(v.Paths))
	e.uvarint(uint64(v.PathsWithHybrid))
	e.float(v.MeanHybridEndpointDegree)
	e.float(v.MeanDualEndpointDegree)
}

func (e *encoder) valley(s valley.Stats) {
	for _, v := range []int{s.Total, s.ValleyFree, s.Valley, s.Unclassified, s.Necessary} {
		e.uvarint(uint64(v))
	}
}

// Open reads a snapshot file.
func Open(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	s, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return s, nil
}

// Read decodes a snapshot from r, validating the magic, version,
// flags, every element count, and the truncation trailer. Malformed
// input of any kind — wrong file type, a future format version,
// truncation at any byte, corrupted varints or enum codes — returns a
// descriptive error; Read never panics on bad input. Both format
// versions decode: version 1 exactly as always, version 2 via the
// strict fixed-width decoder in format2.go.
func Read(r io.Reader) (*Snapshot, error) {
	hdr := make([]byte, 7)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("snapshot: read header: %w", err)
	}
	if string(hdr[:4]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q (not a snapshot file)", hdr[:4])
	}
	version := binary.BigEndian.Uint16(hdr[4:6])
	if version == 0 || version > Version2 {
		return nil, fmt.Errorf("snapshot: file version %d is newer than the supported version %d; upgrade this binary or re-export the snapshot", version, Version2)
	}
	if version == Version2 {
		// The fixed-width format is random-access by design; buffer the
		// rest and hand the whole artifact to the strict v2 decoder.
		rest, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("snapshot: v2 payload: %w", err)
		}
		full := make([]byte, 0, len(hdr)+len(rest))
		full = append(append(full, hdr...), rest...)
		return readV2(full)
	}
	flags := hdr[6]
	if flags&^byte(flagGzip) != 0 {
		return nil, fmt.Errorf("snapshot: unknown flags %#x", flags)
	}
	payload := r
	if flags&flagGzip != 0 {
		gz, err := gzip.NewReader(r)
		if err != nil {
			return nil, fmt.Errorf("snapshot: gzip payload: %w", err)
		}
		defer gz.Close()
		payload = gz
	}
	// Counting the decoded payload stream lets every failure report a
	// byte position — on a multi-GB artifact "truncated input" alone
	// does not say whether the file lost a trailer or half its links.
	pr := &countingReader{r: payload}
	d := &decoder{pr: pr}
	d.r = bufio.NewReader(pr)
	s := &Snapshot{}
	s.Rel4 = d.table("rel4 table")
	s.Rel6 = d.table("rel6 table")
	s.Links4 = d.links("ipv4 links")
	s.Links6 = d.links("ipv6 links")
	s.Hybrids = d.hybrids()
	s.Coverage = d.coverage()
	s.Census = d.census()
	s.Visibility = d.visibility()
	s.Valley = d.valley()
	d.trailer()
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}

// countingReader counts bytes consumed from the underlying stream, so
// decode errors can report where in the payload they happened.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// decoder reads the payload with a sticky error.
type decoder struct {
	r   *bufio.Reader
	pr  *countingReader
	err error
}

// offset returns the payload byte position of the next undecoded byte
// (uncompressed position when the payload is gzipped; the fixed 7-byte
// file header is not included).
func (d *decoder) offset() int64 {
	return d.pr.n - int64(d.r.Buffered())
}

func (d *decoder) fail(section string, err error) {
	if d.err == nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			d.err = fmt.Errorf("snapshot: %s: truncated input at payload byte %d", section, d.offset())
		} else {
			d.err = fmt.Errorf("snapshot: %s: %w (payload byte %d)", section, err, d.offset())
		}
	}
}

func (d *decoder) uvarint(section string) uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.fail(section, err)
		return 0
	}
	return v
}

func (d *decoder) count(section string) int {
	n := d.uvarint(section)
	if n > maxCount {
		d.fail(section, fmt.Errorf("implausible count %d", n))
		return 0
	}
	return int(n)
}

func (d *decoder) asn(section string) asrel.ASN {
	v := d.uvarint(section)
	if v > math.MaxUint32 {
		d.fail(section, fmt.Errorf("AS number %d out of range", v))
		return 0
	}
	return asrel.ASN(v)
}

func (d *decoder) linkKey(section string) asrel.LinkKey {
	lo := d.asn(section)
	hi := d.asn(section)
	if d.err == nil && lo > hi {
		d.fail(section, fmt.Errorf("link %d-%d not in canonical order", lo, hi))
	}
	return asrel.LinkKey{Lo: lo, Hi: hi}
}

func (d *decoder) byte(section string) byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.fail(section, err)
		return 0
	}
	return b
}

func (d *decoder) rel(section string) asrel.Rel {
	b := d.byte(section)
	if d.err == nil && b > byte(asrel.S2S) {
		d.fail(section, fmt.Errorf("invalid relationship code %d", b))
		return asrel.Unknown
	}
	return asrel.Rel(b)
}

func (d *decoder) class(section string) asrel.HybridClass {
	b := d.byte(section)
	if d.err == nil && b > byte(asrel.HybridOther) {
		d.fail(section, fmt.Errorf("invalid hybrid class %d", b))
		return asrel.NotHybrid
	}
	return asrel.HybridClass(b)
}

func (d *decoder) int(section string) int {
	v := d.uvarint(section)
	if d.err == nil && v > math.MaxInt64/2 {
		d.fail(section, fmt.Errorf("implausible value %d", v))
		return 0
	}
	return int(v)
}

func (d *decoder) float(section string) float64 {
	if d.err != nil {
		return 0
	}
	var b [8]byte
	if _, err := io.ReadFull(d.r, b[:]); err != nil {
		d.fail(section, err)
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b[:]))
}

// table decodes a relationship table straight into the interned flat
// form. The wire format guarantees entries sorted by canonical key;
// the builder enforces it, so a table that would break binary-search
// lookups is rejected as corrupt instead of silently mis-serving.
func (d *decoder) table(section string) *intern.Table {
	n := d.count(section)
	var b intern.TableBuilder
	b.Grow(min(n, allocCap))
	for i := 0; i < n && d.err == nil; i++ {
		k := d.linkKey(section)
		r := d.rel(section)
		if d.err == nil {
			if err := b.Append(k, r); err != nil {
				d.fail(section, err)
			}
		}
	}
	return b.Table()
}

func (d *decoder) links(section string) []Link {
	n := d.count(section)
	if n == 0 {
		return nil
	}
	out := make([]Link, 0, min(n, allocCap))
	var last uint64
	for i := 0; i < n && d.err == nil; i++ {
		k := d.linkKey(section)
		v := d.int(section)
		// The serving layer binary-searches these sections in place, so
		// sortedness is part of the wire contract, exactly as for the
		// relationship tables: out-of-order input is corrupt, not a
		// representation to silently mis-serve.
		if u := intern.Pack(k); d.err == nil {
			if i > 0 && u <= last {
				d.fail(section, fmt.Errorf("link %s out of canonical order", k))
				break
			}
			last = u
		}
		out = append(out, Link{Key: k, Visibility: v})
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *decoder) hybrids() []core.HybridLink {
	const section = "hybrid list"
	n := d.count(section)
	if n == 0 {
		return nil
	}
	out := make([]core.HybridLink, 0, min(n, allocCap))
	for i := 0; i < n && d.err == nil; i++ {
		h := core.HybridLink{
			Key:   d.linkKey(section),
			V4:    d.rel(section),
			V6:    d.rel(section),
			Class: d.class(section),
		}
		h.Visibility = d.int(section)
		out = append(out, h)
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *decoder) coverage() core.Coverage {
	const section = "coverage stats"
	return core.Coverage{
		Paths6:             d.int(section),
		Links6:             d.int(section),
		Links4:             d.int(section),
		DualStack:          d.int(section),
		Classified6:        d.int(section),
		ClassifiedDual:     d.int(section),
		ClassifiedDualBoth: d.int(section),
	}
}

func (d *decoder) census() core.HybridCensus {
	const section = "hybrid census"
	c := core.HybridCensus{
		DualClassified: d.int(section),
		Hybrid:         d.int(section),
		ByClass:        make(map[asrel.HybridClass]int),
	}
	n := d.count(section)
	for i := 0; i < n && d.err == nil; i++ {
		cl := d.class(section)
		c.ByClass[cl] = d.int(section)
	}
	return c
}

func (d *decoder) visibility() core.Visibility {
	const section = "visibility stats"
	return core.Visibility{
		Paths:                    d.int(section),
		PathsWithHybrid:          d.int(section),
		MeanHybridEndpointDegree: d.float(section),
		MeanDualEndpointDegree:   d.float(section),
	}
}

func (d *decoder) valley() valley.Stats {
	const section = "valley stats"
	return valley.Stats{
		Total:        d.int(section),
		ValleyFree:   d.int(section),
		Valley:       d.int(section),
		Unclassified: d.int(section),
		Necessary:    d.int(section),
	}
}

// trailer checks the truncation sentinel and that nothing follows it.
func (d *decoder) trailer() {
	if d.err != nil {
		return
	}
	b := make([]byte, 4)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.fail("trailer", err)
		return
	}
	if string(b) != trailer {
		d.fail("trailer", fmt.Errorf("bad sentinel %q (truncated or corrupted snapshot)", b))
		return
	}
	if _, err := d.r.ReadByte(); err != io.EOF {
		d.fail("trailer", fmt.Errorf("trailing garbage after snapshot"))
	}
}
