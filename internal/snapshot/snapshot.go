// Package snapshot persists the queryable products of an analysis run
// as a versioned, compact binary artifact: the per-plane relationship
// tables, the per-plane link sets with their path visibility, the
// hybrid link list, and the headline statistics (coverage, census,
// visibility, valley). A snapshot is what the batch pipeline exports
// and what the serving layer (internal/serve, cmd/hybridserve) loads,
// indexes, and hot-reloads — classification results become a reusable
// dataset instead of an in-process struct that dies with the run.
//
// Every writer — EncodeV2, WriteFileV2, Bytes — produces the
// fixed-width, mmap-able version 3, documented and implemented in
// format2.go together with the read-only version 2. This file holds
// the Snapshot type, Capture, and the decoder for version 1.
//
// # Wire format (version 1, read-only)
//
//	magic   "HYBS"                      4 bytes
//	version uint16 big-endian           1
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
// versions newer than this package reads (forward compatibility is a
// reader upgrade, never a silent misparse), bounds every count, and
// wraps every failure in a descriptive error — corrupted or truncated
// input returns an error, never panics.
//
// # Version policy
//
// Read and Open decode every version ever written — 1, 2 and 3 —
// forever; a file newer than this package is rejected with an error
// naming both versions, never misparsed. Only the current version, 3,
// is written. Map serves version-2 and version-3 files in place
// without a decode pass; only version 3 carries the serving index, so
// a mapped version-2 file builds it once on install. A version-1 file
// cannot be mapped: decode it with Open and re-export it.
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
	"sync/atomic"

	"hybridrel/internal/asrel"
	"hybridrel/internal/core"
	"hybridrel/internal/intern"
	"hybridrel/internal/valley"
)

const (
	// Version1 is the varint format version, read-only now; EncodeV2
	// writes the fixed-width Version3.
	Version1 = 1

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
	// snapshots. It runs when the last reference is dropped.
	closer func() error
	// refs is the number of references held, less one: the zero value
	// is the creator's reference alone, and -1 means none is left.
	refs atomic.Int64
	// closed records that Close dropped the creator's reference;
	// adopted, that an owner took it over (Adopt).
	closed, adopted atomic.Bool
	// raw is the file image a snapshot produced by Map serves from,
	// kept for Verify; nil for heap snapshots.
	raw []byte
	// index is the serving index: aliased from a mapped v3 file, or
	// built on first use (see Index).
	index indexState
}

// Close drops the creator's reference, at most once however often it
// is called. Whoever made the snapshot (Capture, Read, Open, Map) holds
// that reference; Acquire adds more and Release drops them. When the
// last one goes, whatever backs the snapshot is released: for a
// snapshot produced by Map the file is unmapped, after which the
// tables, link sections and hybrid list must not be touched. Close
// returns the unmap error when it dropped the last reference. A
// snapshot with nothing to release (a heap snapshot) stays usable and
// acquirable whatever its count.
func (s *Snapshot) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	return s.drop()
}

// Adopt hands the creator's reference to the caller, which drops it
// later with Close. It reports false when an earlier caller already
// adopted it; such a caller must Acquire a reference of its own. This
// is how a server takes ownership of what it installs: the creator may
// hand a snapshot over and forget it, or install one snapshot twice.
func (s *Snapshot) Adopt() bool { return s.adopted.CompareAndSwap(false, true) }

// Acquire takes a reference, reporting false when the snapshot's
// backing was already released; a snapshot with nothing to release
// always succeeds.
//
//hybridrel:hotpath
func (s *Snapshot) Acquire() bool {
	for {
		r := s.refs.Load()
		if r < 0 && s.closer != nil {
			return false
		}
		if s.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// Release drops a reference taken by Acquire. The error of a release
// the last drop triggers is discarded: the last holder is whichever
// reader finishes last, with no caller to report it to.
//
//hybridrel:hotpath
func (s *Snapshot) Release() { _ = s.drop() }

// drop drops one reference and, when it was the last, runs the closer.
func (s *Snapshot) drop() error {
	if s.refs.Add(-1) != -1 || s.closer == nil {
		return nil
	}
	return s.closer()
}

// Verify runs the strict reader's checks over the file image a
// snapshot produced by Map serves from: canonical layout, every
// record, and for version 3 every section checksum and the stored
// serving index against the builder's output. The first failure names
// the section and byte offset. It costs a full decode, O(file size),
// which is why Map does not do it. A snapshot not served from a file
// image (Capture, Read, Open) has none to check, and Verify returns
// nil. The caller must hold a reference while Verify runs.
func (s *Snapshot) Verify() error {
	if s.raw == nil {
		return nil
	}
	_, err := readFixed(s.raw)
	return err
}

// AttachCloser registers fn to run when the last reference is dropped,
// replacing any previous closer. Call it before the snapshot is shared.
// Map uses it to hook munmap; tests use it to observe exactly when the
// serving layer releases a retired snapshot.
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

// Bytes encodes the snapshot into memory in the current format,
// version 3. The encoding is canonical (see EncodeV2), so equality of
// Bytes output is the repository-wide definition of "the same results"
// — the live-vs-batch and parallelism invariants all compare it.
func Bytes(s *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := EncodeV2(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
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
// truncation at any byte, corrupted varints or enum codes, a section
// checksum or stored index that does not match — returns a descriptive
// error; Read never panics on bad input. Every format version decodes:
// version 1 exactly as always, versions 2 and 3 via the strict
// fixed-width decoder in format2.go.
func Read(r io.Reader) (*Snapshot, error) {
	hdr := make([]byte, 7)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("snapshot: read header: %w", err)
	}
	if string(hdr[:4]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q (not a snapshot file)", hdr[:4])
	}
	version := binary.BigEndian.Uint16(hdr[4:6])
	if version == 0 || version > Version3 {
		return nil, fmt.Errorf("snapshot: file version %d is newer than the supported version %d; upgrade this binary or re-export the snapshot", version, Version3)
	}
	if version != Version1 {
		// The fixed-width formats are random-access by design; buffer the
		// rest and hand the whole artifact to the strict decoder.
		rest, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("snapshot: v%d payload: %w", version, err)
		}
		full := make([]byte, 0, len(hdr)+len(rest))
		full = append(append(full, hdr...), rest...)
		return readFixed(full)
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
