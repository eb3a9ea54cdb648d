package snapshot

// The fixed-width, mmap-able layout: format version 3, the only
// version any writer in this package produces, and version 2 (read
// forever).
//
// Version 1 (snapshot.go, read-only) is a varint stream — compact on
// the wire, but decoding is inherently sequential and materializes
// every entry on the heap, so serve load time and RSS grow linearly
// with world size. The fixed-width versions trade ~2× wire size for
// direct reinterpretation: every section is an array of fixed-width
// little-endian records whose byte layout equals the Go in-memory
// layout on little-endian 64-bit machines (asserted at compile time in
// alias_le64.go), and a section-offset directory in the header makes
// the whole artifact random-access. Map therefore serves such a file
// by validating O(#sections) of structure and aliasing the mapped
// bytes in place — no decode pass, no per-entry heap objects.
//
// Version 3 adds the serving index (index.go) as sections of its own,
// so installing a mapped snapshot does no index work either, and a
// CRC-32C (Castagnoli) of every section in the directory.
//
// # Wire format (version 3)
//
//	off 0   magic   "HYBS"                          4 bytes
//	off 4   version uint16 big-endian               3 (matches v1 sniffing)
//	off 6   flags   uint8                           0 (never compressed)
//	off 7   nsec    uint8                           15 sections
//	off 8   directory: nsec × { offset uint64 LE, count uint64 LE,
//	                            crc32c uint32 LE, reserved uint32 = 0 }
//	        sections, each 8-byte aligned, zero-padded between:
//	   0 rel4keys   count × uint64    packed canonical keys, strictly ascending
//	   1 rel4rels   count × uint8     Rel codes, parallel to rel4keys
//	   2 rel6keys   count × uint64
//	   3 rel6rels   count × uint8
//	   4 links4     count × 16 bytes  { lo u32, hi u32, visibility u64 }
//	   5 links6     count × 16 bytes
//	   6 hybrids    count × 24 bytes  { lo u32, hi u32, v4 u8, v6 u8,
//	                                    class u8, pad[5] = 0, visibility u64 }
//	   7 stats      count × uint64    headline statistics words (below)
//	   8 asns       count × uint32    every AS of either link set, ascending
//	   9 nbroff     (asns+1) × uint32 CSR offsets into nbrs
//	  10 nbrs       count × 8 bytes   { asn u32, flags u8 (bit 0 IPv4,
//	                                    bit 1 IPv6, bit 2 hybrid), rel4 u8,
//	                                    rel6 u8, class u8 }: each AS's run
//	                                    ascending by asn, relationships
//	                                    oriented from the AS
//	  11 classoff   6 × uint32        per-class run offsets into classidx
//	  12 classidx   hybrids × uint32  hybrid-list positions, by class,
//	                                    list order within a class
//	  13 hyboff     (asns+1) × uint32 per-AS run offsets into hybidx
//	  14 hybidx     count × uint32    each AS's hybrid-list positions,
//	                                    list order
//	trailer "SBYH"                                  last 4 bytes
//
// The checksum covers a section's records, not its padding. Version 2
// is the same layout with only sections 0–7, directory entries of 16
// bytes { offset, count } and no checksums.
//
// The stats section is 19+2k words: coverage (7), census
// (dualClassified, hybrid, k, then k × (class, count)), visibility
// (paths, pathsWithHybrid, Float64bits mean-hybrid-degree, Float64bits
// mean-dual-degree), valley (5). It is tiny and decoded eagerly even
// under Map.
//
// Strict decoding (Read, Open, Verify, and Map's fallback on exotic
// platforms) validates everything v1 validates — sortedness, canonical
// key order, enum codes, value bounds — plus the canonical section
// layout (contiguous in index order, zero padding), every checksum,
// and that the stored index equals the builder's output; each failure
// names the section and the byte offset. Map validates only structure
// (bounds, alignment, paired counts, trailer): corrupt but structurally
// valid data yields wrong answers from a binary search, never a panic,
// which is the price of O(1) load.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"hybridrel/internal/asrel"
	"hybridrel/internal/core"
	"hybridrel/internal/intern"
)

const (
	// Version2 is the first fixed-width format version, read-only now.
	Version2 = 2
	// Version3 is the fixed-width format version EncodeV2 writes: v2
	// plus the serving index and per-section checksums.
	Version3 = 3

	v2NumSections = 8
	numSections   = 15
	v3HeaderSize  = 8 + numSections*24
)

// Section indexes into the directory; v2 has the first eight.
const (
	secRel4Keys = iota
	secRel4Rels
	secRel6Keys
	secRel6Rels
	secLinks4
	secLinks6
	secHybrids
	secStats
	secASNs
	secNbrOff
	secNbrs
	secClassOff
	secClassIdx
	secHybOff
	secHybIdx
)

// secNames names each section in error messages.
var secNames = [numSections]string{
	"rel4 keys", "rel4 rels", "rel6 keys", "rel6 rels", "ipv4 links",
	"ipv6 links", "hybrid list", "stats", "index asns",
	"index neighbour offsets", "index neighbours", "index class offsets",
	"index class runs", "index hybrid offsets", "index hybrid runs",
}

// recSize is the fixed record width of each section in bytes.
var recSize = [numSections]int{8, 1, 8, 1, 16, 16, 24, 8, 4, 4, 8, 4, 4, 4, 4}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// align8 rounds up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// fixedSpec is the header shape of one fixed-width version.
type fixedSpec struct {
	nsec  int // directory entries
	entry int // bytes per directory entry
}

func specOf(version uint16) (fixedSpec, bool) {
	switch version {
	case Version2:
		return fixedSpec{nsec: v2NumSections, entry: 16}, true
	case Version3:
		return fixedSpec{nsec: numSections, entry: 24}, true
	}
	return fixedSpec{}, false
}

func (f fixedSpec) headerSize() int { return 8 + f.nsec*f.entry }

// WriteFileV2 writes s to path in the current format, version 3,
// atomically: the bytes land in a temporary sibling first and are
// renamed into place, so a server hot-reloading the file never
// observes a half-written artifact.
func WriteFileV2(path string, s *Snapshot) error {
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
	if err := EncodeV2(f, s); err != nil {
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

// EncodeV2 serializes s in the current fixed-width format, version 3,
// building s's serving index if it has none yet. The encoding is
// canonical — fixed section order, fixed offsets for given counts,
// zero padding, sorted census classes, an index that is a function of
// the products — so equal snapshots produce identical bytes, and Bytes
// equality is equality of every product.
func EncodeV2(w io.Writer, s *Snapshot) error {
	src := sectionSource{s: s, ix: s.Index(), words: v2StatsWords(s)}
	var offs [numSections]int
	off := v3HeaderSize
	for i := range offs {
		offs[i] = off
		off = align8(off + src.count(i)*recSize[i])
	}

	// The directory precedes the sections it checksums, so a first pass
	// streams each section through the hash and a second writes it.
	e := &encoderV2{buf: make([]byte, 0, encChunk+64)}
	var crcs [numSections]uint32
	h := crc32.New(castagnoli)
	for i := range crcs {
		h.Reset()
		e.w = h
		src.write(e, i)
		e.flush()
		crcs[i] = h.Sum32()
	}

	hdr := make([]byte, v3HeaderSize)
	copy(hdr, magic)
	binary.BigEndian.PutUint16(hdr[4:6], Version3)
	hdr[6] = 0
	hdr[7] = numSections
	for i := range offs {
		d := hdr[8+24*i:]
		binary.LittleEndian.PutUint64(d, uint64(offs[i]))
		binary.LittleEndian.PutUint64(d[8:], uint64(src.count(i)))
		binary.LittleEndian.PutUint32(d[16:], crcs[i])
	}
	e.w, e.off = w, 0
	e.bytes(hdr)
	for i := range offs {
		e.pad(offs[i])
		src.write(e, i)
	}
	e.pad(off)
	e.bytes([]byte(trailer))
	e.flush()
	if e.err != nil {
		return fmt.Errorf("snapshot: encode v3: %w", e.err)
	}
	return nil
}

// sectionSource produces the records of every section of a snapshot.
type sectionSource struct {
	s     *Snapshot
	ix    *Index
	words []uint64
}

func (src *sectionSource) count(i int) int {
	s, ix := src.s, src.ix
	switch i {
	case secRel4Keys, secRel4Rels:
		return tableLen(s.Rel4)
	case secRel6Keys, secRel6Rels:
		return tableLen(s.Rel6)
	case secLinks4:
		return len(s.Links4)
	case secLinks6:
		return len(s.Links6)
	case secHybrids:
		return len(s.Hybrids)
	case secStats:
		return len(src.words)
	case secASNs:
		return len(ix.asns)
	case secNbrOff:
		return len(ix.nbrOff)
	case secNbrs:
		return len(ix.nbrs)
	case secClassOff:
		return len(ix.classOff)
	case secClassIdx:
		return len(ix.classIdx)
	case secHybOff:
		return len(ix.hybOff)
	case secHybIdx:
		return len(ix.hybIdx)
	}
	panic("snapshot: no such section")
}

// write emits section i's records, without padding.
func (src *sectionSource) write(e *encoderV2, i int) {
	s, ix := src.s, src.ix
	switch i {
	case secRel4Keys:
		e.u64s(tableKeys(s.Rel4))
	case secRel4Rels:
		e.rels(tableRels(s.Rel4))
	case secRel6Keys:
		e.u64s(tableKeys(s.Rel6))
	case secRel6Rels:
		e.rels(tableRels(s.Rel6))
	case secLinks4:
		for _, l := range s.Links4 {
			e.link(l)
		}
	case secLinks6:
		for _, l := range s.Links6 {
			e.link(l)
		}
	case secHybrids:
		for _, h := range s.Hybrids {
			e.hybrid(h)
		}
	case secStats:
		e.u64s(src.words)
	case secASNs:
		for _, a := range ix.asns {
			e.u32(uint32(a))
		}
	case secNbrOff:
		e.u32s(ix.nbrOff)
	case secNbrs:
		for _, n := range ix.nbrs {
			e.u32(uint32(n.ASN))
			e.buf = append(e.buf, n.flags, byte(n.rel4), byte(n.rel6), byte(n.class))
			e.grew(4)
		}
	case secClassOff:
		e.u32s(ix.classOff)
	case secClassIdx:
		e.u32s(ix.classIdx)
	case secHybOff:
		e.u32s(ix.hybOff)
	case secHybIdx:
		e.u32s(ix.hybIdx)
	}
}

func tableLen(t *intern.Table) int {
	if t == nil {
		return 0
	}
	return t.Len()
}

func tableKeys(t *intern.Table) []uint64 {
	if t == nil {
		return nil
	}
	return t.PackedKeys()
}

func tableRels(t *intern.Table) []asrel.Rel {
	if t == nil {
		return nil
	}
	return t.Rels()
}

// encChunk is how many bytes encoderV2 buffers before handing them on.
const encChunk = 64 << 10

// encoderV2 writes little-endian records in chunks with a sticky
// error while tracking the output offset, so zero padding to each
// section's directory offset is exact.
type encoderV2 struct {
	w   io.Writer
	buf []byte
	off int
	err error
}

func (e *encoderV2) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// grew accounts for n appended bytes and flushes a full chunk.
func (e *encoderV2) grew(n int) {
	e.off += n
	if len(e.buf) >= encChunk {
		e.flush()
	}
}

func (e *encoderV2) bytes(b []byte) {
	e.buf = append(e.buf, b...)
	e.grew(len(b))
}

func (e *encoderV2) u32(u uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, u)
	e.grew(4)
}

func (e *encoderV2) u64(u uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, u)
	e.grew(8)
}

func (e *encoderV2) u32s(us []uint32) {
	for _, u := range us {
		e.u32(u)
	}
}

func (e *encoderV2) u64s(us []uint64) {
	for _, u := range us {
		e.u64(u)
	}
}

func (e *encoderV2) rels(rs []asrel.Rel) {
	for _, r := range rs {
		e.buf = append(e.buf, byte(r))
		e.grew(1)
	}
}

func (e *encoderV2) pad(to int) {
	for e.off < to {
		e.buf = append(e.buf, 0)
		e.grew(1)
	}
}

func (e *encoderV2) link(l Link) {
	e.u32(uint32(l.Key.Lo))
	e.u32(uint32(l.Key.Hi))
	e.u64(uint64(l.Visibility))
}

func (e *encoderV2) hybrid(h core.HybridLink) {
	e.u32(uint32(h.Key.Lo))
	e.u32(uint32(h.Key.Hi))
	e.buf = append(e.buf, byte(h.V4), byte(h.V6), byte(h.Class), 0, 0, 0, 0, 0)
	e.grew(8)
	e.u64(uint64(h.Visibility))
}

// v2StatsWords flattens the headline statistics into the stats-section
// word sequence, census classes sorted.
func v2StatsWords(s *Snapshot) []uint64 {
	c, cs, v, vs := s.Coverage, s.Census, s.Visibility, s.Valley
	classes := make([]asrel.HybridClass, 0, len(cs.ByClass))
	for cl := range cs.ByClass {
		classes = append(classes, cl)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	words := make([]uint64, 0, 19+2*len(classes))
	for _, n := range []int{c.Paths6, c.Links6, c.Links4, c.DualStack,
		c.Classified6, c.ClassifiedDual, c.ClassifiedDualBoth} {
		words = append(words, uint64(n))
	}
	words = append(words, uint64(cs.DualClassified), uint64(cs.Hybrid), uint64(len(classes)))
	for _, cl := range classes {
		words = append(words, uint64(cl), uint64(cs.ByClass[cl]))
	}
	words = append(words, uint64(v.Paths), uint64(v.PathsWithHybrid),
		math.Float64bits(v.MeanHybridEndpointDegree), math.Float64bits(v.MeanDualEndpointDegree))
	for _, n := range []int{vs.Total, vs.ValleyFree, vs.Valley, vs.Unclassified, vs.Necessary} {
		words = append(words, uint64(n))
	}
	return words
}

// layout is the parsed section directory of a fixed-width artifact.
type layout struct {
	version uint16
	spec    fixedSpec
	off     [numSections]int
	cnt     [numSections]int
	crc     [numSections]uint32
}

// records returns section i's record bytes.
func (l *layout) records(data []byte, i int) []byte {
	return data[l.off[i] : l.off[i]+l.cnt[i]*recSize[i]]
}

// sectionErr formats a failure in section i.
func (l *layout) sectionErr(i int, format string, args ...any) error {
	return fmt.Errorf("snapshot: v%d section %d (%s): %s", l.version, i, secNames[i], fmt.Sprintf(format, args...))
}

// parseFixed validates the structural invariants of a fixed-width
// artifact of size bytes — the whole of what Map checks before serving
// it: header fields, directory bounds and alignment, paired counts,
// and the trailer. It reads only head, the file's first
// min(size, v3HeaderSize) bytes, and tail, its last four, never the
// section payloads, so its cost is independent of snapshot size.
func parseFixed(head, tail []byte, size int) (*layout, error) {
	if size < 8 || len(head) < 8 {
		return nil, fmt.Errorf("snapshot: file too short (%d bytes)", size)
	}
	if string(head[:4]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q (not a snapshot file)", head[:4])
	}
	v := binary.BigEndian.Uint16(head[4:6])
	spec, ok := specOf(v)
	if !ok {
		if v > Version3 {
			return nil, fmt.Errorf("snapshot: file version %d is newer than the supported version %d; upgrade this binary or re-export the snapshot", v, Version3)
		}
		return nil, fmt.Errorf("snapshot: version %d is not a fixed-width format", v)
	}
	if need := spec.headerSize() + len(trailer); size < need || len(head) < spec.headerSize() || len(tail) != len(trailer) {
		return nil, fmt.Errorf("snapshot: v%d: file too short (%d bytes, need at least %d)", v, size, need)
	}
	if head[6] != 0 {
		return nil, fmt.Errorf("snapshot: v%d: unknown flags %#x (fixed-width payloads are never compressed)", v, head[6])
	}
	if int(head[7]) != spec.nsec {
		return nil, fmt.Errorf("snapshot: v%d: section count %d, want %d", v, head[7], spec.nsec)
	}
	if string(tail) != trailer {
		return nil, fmt.Errorf("snapshot: v%d trailer: bad sentinel %q at byte offset %d (truncated or corrupted snapshot)", v, tail, size-len(trailer))
	}
	lay := &layout{version: v, spec: spec}
	limit := uint64(size - len(trailer))
	for i := 0; i < spec.nsec; i++ {
		d := head[8+spec.entry*i:]
		off := binary.LittleEndian.Uint64(d)
		cnt := binary.LittleEndian.Uint64(d[8:])
		if cnt > maxCount {
			return nil, lay.sectionErr(i, "implausible count %d", cnt)
		}
		if off%8 != 0 || off < uint64(spec.headerSize()) || off > limit || cnt*uint64(recSize[i]) > limit-off {
			return nil, lay.sectionErr(i, "out of bounds (offset %d, %d records of %d bytes in a %d-byte file)", off, cnt, recSize[i], size)
		}
		if v == Version3 {
			if r := binary.LittleEndian.Uint32(d[20:]); r != 0 {
				return nil, lay.sectionErr(i, "nonzero reserved directory word %#x at byte offset %d", r, 8+spec.entry*i+20)
			}
			lay.crc[i] = binary.LittleEndian.Uint32(d[16:])
		}
		lay.off[i], lay.cnt[i] = int(off), int(cnt)
	}
	if lay.cnt[secRel4Keys] != lay.cnt[secRel4Rels] || lay.cnt[secRel6Keys] != lay.cnt[secRel6Rels] {
		return nil, fmt.Errorf("snapshot: v%d: relationship key/rel section counts disagree", v)
	}
	if v == Version3 {
		c := &lay.cnt
		switch {
		case c[secNbrOff] != c[secASNs]+1, c[secHybOff] != c[secASNs]+1:
			return nil, fmt.Errorf("snapshot: v3: index offset counts %d/%d disagree with %d ASNs", c[secNbrOff], c[secHybOff], c[secASNs])
		case c[secClassIdx] != c[secHybrids]:
			return nil, fmt.Errorf("snapshot: v3: index class runs hold %d hybrids, the list %d", c[secClassIdx], c[secHybrids])
		case c[secClassOff] != numClassRuns+1:
			return nil, fmt.Errorf("snapshot: v3: %d class offsets, want %d", c[secClassOff], numClassRuns+1)
		}
	}
	return lay, nil
}

// readFixed is the strict fixed-width decoder: full validation
// (everything the v1 decoder checks, plus canonical section placement,
// zero padding, and for v3 every checksum and the stored index) with
// every product copied onto the heap. Read dispatches here for
// version-2 and version-3 streams; Verify runs it over a mapping; Map
// falls back to it on platforms where aliasing is unavailable.
func readFixed(data []byte) (*Snapshot, error) {
	lay, err := parseFixed(data[:min(len(data), v3HeaderSize)], data[max(0, len(data)-len(trailer)):], len(data))
	if err != nil {
		return nil, err
	}
	// Canonical placement: sections contiguous in index order with zero
	// padding and nothing between the last section and the trailer.
	// A hand-built directory that overlaps or reorders sections is
	// corrupt, not an alternate representation.
	off := lay.spec.headerSize()
	for i := 0; i < lay.spec.nsec; i++ {
		if lay.off[i] != off {
			return nil, lay.sectionErr(i, "at byte offset %d, want canonical offset %d", lay.off[i], off)
		}
		end := off + lay.cnt[i]*recSize[i]
		off = align8(end)
		for j := end; j < off; j++ {
			if data[j] != 0 {
				return nil, lay.sectionErr(i, "nonzero padding at byte offset %d", j)
			}
		}
	}
	if off != len(data)-len(trailer) {
		return nil, fmt.Errorf("snapshot: v%d: %d bytes of trailing garbage before the trailer", lay.version, len(data)-len(trailer)-off)
	}
	if lay.version == Version3 {
		for i := 0; i < numSections; i++ {
			if got := crc32.Checksum(lay.records(data, i), castagnoli); got != lay.crc[i] {
				return nil, lay.sectionErr(i, "checksum mismatch at byte offset %d (stored crc32c %#08x, computed %#08x)", lay.off[i], lay.crc[i], got)
			}
		}
	}
	s := &Snapshot{}
	if s.Rel4, err = readTableV2(data, lay, secRel4Keys); err != nil {
		return nil, err
	}
	if s.Rel6, err = readTableV2(data, lay, secRel6Keys); err != nil {
		return nil, err
	}
	if s.Links4, err = readLinksV2(data, lay, secLinks4); err != nil {
		return nil, err
	}
	if s.Links6, err = readLinksV2(data, lay, secLinks6); err != nil {
		return nil, err
	}
	if s.Hybrids, err = readHybridsV2(data, lay); err != nil {
		return nil, err
	}
	if err = readStatsV2(lay.records(data, secStats), lay, s); err != nil {
		return nil, err
	}
	if lay.version == Version3 {
		if err := checkIndex(data, lay, s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// checkIndex requires the stored index sections to equal, byte for
// byte, the builder's index of the decoded products, and keeps the
// built index as s's.
func checkIndex(data []byte, lay *layout, s *Snapshot) error {
	src := sectionSource{s: s, ix: s.Index()}
	e := &encoderV2{}
	for i := secASNs; i < numSections; i++ {
		if n := src.count(i); n != lay.cnt[i] {
			return lay.sectionErr(i, "stored index has %d records at byte offset %d, the builder %d", lay.cnt[i], lay.off[i], n)
		}
		cmp := &compareWriter{want: lay.records(data, i), diff: -1}
		e.w = cmp
		src.write(e, i)
		e.flush()
		if cmp.diff >= 0 {
			return lay.sectionErr(i, "stored index differs from the builder's at byte offset %d", lay.off[i]+cmp.diff)
		}
	}
	return nil
}

// compareWriter compares what is written against want and records the
// position of the first differing byte.
type compareWriter struct {
	want []byte
	pos  int
	diff int // -1 while everything written matches
}

func (c *compareWriter) Write(p []byte) (int, error) {
	if c.diff < 0 {
		for j, b := range p {
			if c.pos+j >= len(c.want) || c.want[c.pos+j] != b {
				c.diff = c.pos + j
				break
			}
		}
	}
	c.pos += len(p)
	return len(p), nil
}

func readTableV2(data []byte, lay *layout, ki int) (*intern.Table, error) {
	n := lay.cnt[ki]
	ko, ro := lay.off[ki], lay.off[ki+1]
	var b intern.TableBuilder
	b.Grow(min(n, allocCap))
	for i := 0; i < n; i++ {
		u := binary.LittleEndian.Uint64(data[ko+8*i:])
		k := intern.Unpack(u)
		if k.Lo > k.Hi {
			return nil, lay.sectionErr(ki, "link %s not in canonical order (byte offset %d)", k, ko+8*i)
		}
		r := data[ro+i]
		if r > byte(asrel.S2S) {
			return nil, lay.sectionErr(ki+1, "invalid relationship code %d (byte offset %d)", r, ro+i)
		}
		if err := b.Append(k, asrel.Rel(r)); err != nil {
			return nil, lay.sectionErr(ki, "%v (byte offset %d)", err, ko+8*i)
		}
	}
	return b.Table(), nil
}

func readLinksV2(data []byte, lay *layout, si int) ([]Link, error) {
	n := lay.cnt[si]
	if n == 0 {
		return nil, nil
	}
	out := make([]Link, 0, min(n, allocCap))
	var last uint64
	for i := 0; i < n; i++ {
		o := lay.off[si] + 16*i
		lo := binary.LittleEndian.Uint32(data[o:])
		hi := binary.LittleEndian.Uint32(data[o+4:])
		vis := binary.LittleEndian.Uint64(data[o+8:])
		k := asrel.LinkKey{Lo: asrel.ASN(lo), Hi: asrel.ASN(hi)}
		u := uint64(lo)<<32 | uint64(hi)
		switch {
		case lo > hi:
			return nil, lay.sectionErr(si, "link %s not in canonical order (byte offset %d)", k, o)
		case i > 0 && u <= last:
			return nil, lay.sectionErr(si, "link %s out of canonical order (byte offset %d)", k, o)
		case vis > math.MaxInt64/2:
			return nil, lay.sectionErr(si, "implausible value %d (byte offset %d)", vis, o+8)
		}
		last = u
		out = append(out, Link{Key: k, Visibility: int(vis)})
	}
	return out, nil
}

func readHybridsV2(data []byte, lay *layout) ([]core.HybridLink, error) {
	const si = secHybrids
	n := lay.cnt[si]
	if n == 0 {
		return nil, nil
	}
	out := make([]core.HybridLink, 0, min(n, allocCap))
	for i := 0; i < n; i++ {
		o := lay.off[si] + 24*i
		lo := binary.LittleEndian.Uint32(data[o:])
		hi := binary.LittleEndian.Uint32(data[o+4:])
		v4, v6, class := data[o+8], data[o+9], data[o+10]
		vis := binary.LittleEndian.Uint64(data[o+16:])
		k := asrel.LinkKey{Lo: asrel.ASN(lo), Hi: asrel.ASN(hi)}
		switch {
		case lo > hi:
			return nil, lay.sectionErr(si, "link %s not in canonical order (byte offset %d)", k, o)
		case v4 > byte(asrel.S2S) || v6 > byte(asrel.S2S):
			return nil, lay.sectionErr(si, "invalid relationship code (byte offset %d)", o+8)
		case class > byte(asrel.HybridOther):
			return nil, lay.sectionErr(si, "invalid hybrid class %d (byte offset %d)", class, o+10)
		case vis > math.MaxInt64/2:
			return nil, lay.sectionErr(si, "implausible value %d (byte offset %d)", vis, o+16)
		}
		for j := o + 11; j < o+16; j++ {
			if data[j] != 0 {
				return nil, lay.sectionErr(si, "nonzero record padding (byte offset %d)", j)
			}
		}
		out = append(out, core.HybridLink{
			Key: k, V4: asrel.Rel(v4), V6: asrel.Rel(v6),
			Class: asrel.HybridClass(class), Visibility: int(vis),
		})
	}
	return out, nil
}

// readStatsV2 decodes the stats section's record bytes into s. It is
// shared by the strict decoder and Map (the section is 19+2k words —
// eager decode does not disturb Map's size-independent load).
func readStatsV2(rec []byte, lay *layout, s *Snapshot) error {
	const si = secStats
	n := lay.cnt[si]
	words := make([]uint64, n)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(rec[8*i:])
	}
	if n < 19 {
		return lay.sectionErr(si, "%d words, need at least 19", n)
	}
	word := func(i int) (int, error) {
		if words[i] > math.MaxInt64/2 {
			return 0, lay.sectionErr(si, "implausible value %d (word %d)", words[i], i)
		}
		return int(words[i]), nil
	}
	var err error
	s.Coverage = core.Coverage{}
	for i, p := range []*int{&s.Coverage.Paths6, &s.Coverage.Links6, &s.Coverage.Links4,
		&s.Coverage.DualStack, &s.Coverage.Classified6, &s.Coverage.ClassifiedDual,
		&s.Coverage.ClassifiedDualBoth} {
		if *p, err = word(i); err != nil {
			return err
		}
	}
	s.Census = core.HybridCensus{ByClass: make(map[asrel.HybridClass]int)}
	if s.Census.DualClassified, err = word(7); err != nil {
		return err
	}
	if s.Census.Hybrid, err = word(8); err != nil {
		return err
	}
	k := words[9]
	if k > uint64(asrel.HybridOther)+1 || n != int(19+2*k) {
		return lay.sectionErr(si, "%d words with %d census classes", n, k)
	}
	for i := 0; i < int(k); i++ {
		cl := words[10+2*i]
		if cl > uint64(asrel.HybridOther) {
			return lay.sectionErr(si, "invalid hybrid class %d (word %d)", cl, 10+2*i)
		}
		if i > 0 && cl <= words[8+2*i] {
			return lay.sectionErr(si, "census class %d after class %d is not strictly ascending (word %d)", cl, words[8+2*i], 10+2*i)
		}
		if s.Census.ByClass[asrel.HybridClass(cl)], err = word(11 + 2*i); err != nil {
			return err
		}
	}
	base := 10 + 2*int(k)
	if s.Visibility.Paths, err = word(base); err != nil {
		return err
	}
	if s.Visibility.PathsWithHybrid, err = word(base + 1); err != nil {
		return err
	}
	s.Visibility.MeanHybridEndpointDegree = math.Float64frombits(words[base+2])
	s.Visibility.MeanDualEndpointDegree = math.Float64frombits(words[base+3])
	for i, p := range []*int{&s.Valley.Total, &s.Valley.ValleyFree, &s.Valley.Valley,
		&s.Valley.Unclassified, &s.Valley.Necessary} {
		if *p, err = word(base + 4 + i); err != nil {
			return err
		}
	}
	return nil
}
