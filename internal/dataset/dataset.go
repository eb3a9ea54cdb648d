// Package dataset assembles the observed measurement data the paper
// works with: it ingests MRT TABLE_DUMP_V2 archives, cleans the AS
// paths (prepending removal, loop and AS_SET rejection), deduplicates
// them, extracts the AS-level links of one address-family plane, and
// joins two planes into the dual-stack link set.
//
// Everything downstream — the baseline inference algorithms, the
// communities miner, the LocPrf calibration, the valley analysis —
// consumes a Dataset, never the generator's ground truth.
//
// The ingest hot path is allocation-free in the steady state: paths are
// interned into one grown arena of dense uint32 AS identifiers,
// deduplicated through an open-addressed hash over the interned
// sequence (no per-observation key strings), and link occurrences
// accumulate directly into an open-addressed counter that freezes into
// the sorted intern.Counts index on first query. Per-path costs are
// paid only for *unique* paths; a duplicate observation touches nothing
// but a hash probe and an observation counter.
package dataset

import (
	"fmt"
	"io"
	"net/netip"
	"sort"
	"sync"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
	"hybridrel/internal/intern"
	"hybridrel/internal/mrt"
	"hybridrel/internal/topology"
)

// PathObs is one deduplicated AS-path observation with the attributes
// relevant to relationship inference.
type PathObs struct {
	// Vantage is the collector peer (the first AS of Path).
	Vantage asrel.ASN
	// Path runs vantage → origin, cleaned of prepending.
	Path []asrel.ASN
	// Prefixes lists the distinct prefixes observed with this path.
	Prefixes []netip.Prefix
	// Communities is the community set of the route.
	Communities []bgp.Community
	// LocPrf is the vantage's LOCAL_PREF when the feed provides it.
	LocPrf    uint32
	HasLocPrf bool
	// Obs counts raw observations merged into this unique path.
	Obs int
}

// Origin returns the last AS of the path. The second return is false
// for a zero-length path — a PathObs this package never constructs
// (CleanPath rejects empty raw paths), but one a future caller or a
// decoded artifact could hand us; indexing Path[len-1] unguarded would
// panic on it.
func (p *PathObs) Origin() (asrel.ASN, bool) {
	if len(p.Path) == 0 {
		return 0, false
	}
	return p.Path[len(p.Path)-1], true
}

// packedPrefix is a netip.Prefix flattened to plain bytes. Keeping the
// inline prefix pointer-free keeps the whole record array invisible to
// the garbage collector's scan phase — at ingest scale that is worth
// the (two-instruction) unpack on materialization.
type packedPrefix struct {
	addr  [16]byte // As16 form
	bits  uint8    // 0..128, so /128 must not pass through a signed byte
	is4   bool
	valid bool
}

func packPrefix(p netip.Prefix) packedPrefix {
	return packedPrefix{
		addr:  p.Addr().As16(),
		bits:  uint8(p.Bits()),
		is4:   p.Addr().Is4(),
		valid: true,
	}
}

func (p packedPrefix) unpack() netip.Prefix {
	if p.is4 {
		var a4 [4]byte
		copy(a4[:], p.addr[12:])
		return netip.PrefixFrom(netip.AddrFrom4(a4), int(p.bits))
	}
	return netip.PrefixFrom(netip.AddrFrom16(p.addr), int(p.bits))
}

// pathRec is the internal, arena-backed form of one unique path: its
// interned AS sequence lives in the path arena at [off, end), its
// community set in the community arena at [commOff, commEnd), its
// first observed prefix packed inline (the overwhelmingly common shape
// is one prefix per path), and any further prefixes in the dataset's
// overflow table at moreIdx. hash caches the dedup hash so table
// growth re-probes without recomputing it.
//
// The record is deliberately pointer-free: the recs array is the
// largest allocation ingestion grows, and keeping it out of the
// garbage collector's scan phase (and its growth out of the
// write-barrier path) is a measurable share of ingest wall-clock.
type pathRec struct {
	off, end         uint32
	commOff, commEnd uint32
	hash             uint32
	obs              int32
	locPrf           uint32
	moreIdx          int32 // index into morePrefixes, -1 when none
	prefix0          packedPrefix
	hasLocPrf        bool
}

// hasPrefix reports whether the rec already carries p.
func (d *Dataset) hasPrefix(r *pathRec, p packedPrefix) bool {
	if r.prefix0 == p {
		return true
	}
	if r.moreIdx >= 0 {
		for _, q := range d.morePrefixes[r.moreIdx] {
			if q == p {
				return true
			}
		}
	}
	return false
}

// addPrefix appends a prefix the rec does not yet carry. Overflow
// entries are append-only and keyed by a stable index, so records can
// be reordered and copied freely without touching them.
func (d *Dataset) addPrefix(r *pathRec, p packedPrefix) {
	if !r.prefix0.valid {
		r.prefix0 = p
		return
	}
	if r.moreIdx < 0 {
		r.moreIdx = int32(len(d.morePrefixes))
		d.morePrefixes = append(d.morePrefixes, []packedPrefix{p})
		return
	}
	d.morePrefixes[r.moreIdx] = append(d.morePrefixes[r.moreIdx], p)
}

// numPrefixes returns the rec's prefix count.
func (d *Dataset) numPrefixes(r *pathRec) int {
	if !r.prefix0.valid {
		return 0
	}
	n := 1
	if r.moreIdx >= 0 {
		n += len(d.morePrefixes[r.moreIdx])
	}
	return n
}

// Dataset is the observed data of one address-family plane.
//
// Unique paths are stored as interned uint32 sequences in one arena
// slice with per-path records alongside; deduplication probes an
// open-addressed table keyed by a hash of the interned sequence. Link
// occurrences are accumulated in an open-addressed counter and folded
// on first query into a sorted intern.Counts — the interned
// representation every link lookup, the dual-stack join, and the
// snapshot capture run on. The fold is incremental: only occurrences
// that arrived since the last freeze are sorted and merged into the
// standing index, so steady-state memory is O(distinct links), not
// O(occurrences).
type Dataset struct {
	AF asrel.AF

	in           *intern.Interner
	arena        []uint32         // interned AS ids of every unique path, concatenated
	commArena    []bgp.Community  // community sets of every unique path, concatenated
	recs         []pathRec        // one record per unique path
	morePrefixes [][]packedPrefix // overflow prefixes beyond each rec's first

	// tab is the open-addressed dedup index: slot values are rec index
	// plus one, zero meaning empty. nil after a Merge (merged datasets
	// are usually only queried); the next AddPath rebuilds it.
	tab []int32

	// sorted reports that recs is in canonical path order (lexicographic
	// by AS sequence) — the order Merge's two-pointer walk consumes and
	// Paths() returns. Appending an out-of-order path clears it.
	sorted bool

	cleanScratch []asrel.ASN        // collapsed-path scratch for AddPath
	flatScratch  []asrel.ASN        // flattened AS-path scratch for AddMRT
	longSeen     map[asrel.ASN]bool // loop-check scratch for long paths

	// mutations counts mutating calls; the materialized path cache
	// records the count it was built at and rebuilds when it moved.
	mutations uint64

	// flatMu guards the lazily-built flat index and the materialized
	// path cache: derived-product accessors may race on the first query
	// after ingest. Mutation concurrent with queries remains
	// unsupported, as it always was — which is why AddPath itself takes
	// no lock.
	flatMu    sync.Mutex
	accum     intern.CountsAccum // occurrences not yet folded into flat
	flat      *intern.Counts     // nil until the first freeze
	pathsMemo []*PathObs         // materialized Paths(); nil when stale
	memoAt    uint64             // mutation count pathsMemo was built at

	// ingest tallies
	observations int
	droppedSets  int
	droppedLoops int
	skippedAF    int

	// live is the delta layer of a streaming dataset (NewLive); nil
	// for batch datasets, whose behavior is unchanged.
	live *liveState
}

// New returns an empty dataset for one plane.
func New(af asrel.AF) *Dataset {
	return &Dataset{
		AF:     af,
		in:     intern.NewInterner(),
		sorted: true,
	}
}

// cleanPathQuadraticMax bounds the pairwise loop check of CleanPath's
// allocation-free fast path; real AS paths are far shorter.
const cleanPathQuadraticMax = 32

// CleanPath canonicalizes a raw AS path: consecutive duplicates
// (prepending) are collapsed; a path in which an AS reappears
// non-consecutively is a loop and is rejected. When raw is already
// canonical — no prepending to collapse — raw itself is returned
// without copying; callers that intend to mutate the result must copy
// it first.
func CleanPath(raw []asrel.ASN) ([]asrel.ASN, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("dataset: empty AS path")
	}
	clean := true
	for i := 1; i < len(raw); i++ {
		if raw[i] == raw[i-1] {
			clean = false
			break
		}
	}
	if clean {
		if len(raw) <= cleanPathQuadraticMax {
			// Pairwise loop check: allocation-free, and quadratic only
			// in the (tiny, bounded) path length.
			for i := 1; i < len(raw); i++ {
				for j := 0; j < i; j++ {
					if raw[j] == raw[i] {
						return nil, fmt.Errorf("dataset: AS path loop through %s", raw[i])
					}
				}
			}
			return raw, nil
		}
		seen := make(map[asrel.ASN]bool, len(raw))
		for _, a := range raw {
			if seen[a] {
				return nil, fmt.Errorf("dataset: AS path loop through %s", a)
			}
			seen[a] = true
		}
		return raw, nil
	}
	out := make([]asrel.ASN, 0, len(raw))
	for _, a := range raw {
		if len(out) > 0 && out[len(out)-1] == a {
			continue // prepending
		}
		out = append(out, a)
	}
	seen := make(map[asrel.ASN]bool, len(out))
	for _, a := range out {
		if seen[a] {
			return nil, fmt.Errorf("dataset: AS path loop through %s", a)
		}
		seen[a] = true
	}
	return out, nil
}

// cleanScr collapses prepending into the dataset's reusable scratch and
// rejects loops, all without allocating in the steady state. The
// returned slice is the scratch, valid until the next call. Note it
// works on raw AS numbers: a duplicate observation — the overwhelming
// steady-state case — never touches the interner.
//
//hybridrel:hotpath
func (d *Dataset) cleanScr(raw []asrel.ASN) ([]asrel.ASN, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("dataset: empty AS path")
	}
	p := raw
	for i := 1; i < len(raw); i++ {
		if raw[i] == raw[i-1] {
			// Prepending found: collapse into the scratch. Most paths
			// carry none and skip this copy entirely.
			s := append(d.cleanScratch[:0], raw[:i]...)
			for _, a := range raw[i:] {
				if a != s[len(s)-1] {
					s = append(s, a)
				}
			}
			d.cleanScratch = s
			p = s
			break
		}
	}
	if len(p) <= cleanPathQuadraticMax {
		for i := 1; i < len(p); i++ {
			for j := 0; j < i; j++ {
				if p[j] == p[i] {
					return nil, fmt.Errorf("dataset: AS path loop through %s", p[i])
				}
			}
		}
		return p, nil
	}
	if d.longSeen == nil {
		d.longSeen = make(map[asrel.ASN]bool, len(p)) //hybridlint:ignore hotalloc -- lazy one-time init of the reused long-path scratch set; cleared, not reallocated, on every later call
	} else {
		clear(d.longSeen)
	}
	for _, a := range p {
		if d.longSeen[a] {
			return nil, fmt.Errorf("dataset: AS path loop through %s", a)
		}
		d.longSeen[a] = true
	}
	return p, nil
}

// hashASNs mixes a cleaned AS sequence into the dedup table's hash
// (FNV-1a over the AS numbers with a final avalanche, truncated to the
// 32 bits the records cache).
//
//hybridrel:hotpath
func hashASNs(p []asrel.ASN) uint32 {
	h := uint64(1469598103934665603)
	for _, a := range p {
		h ^= uint64(a)
		h *= 1099511628211
	}
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return uint32(h)
}

// pathEq reports whether rec ri's arena sequence spells the AS path p.
// The id→ASN translation is a slice index, so a probe costs no hashing.
//
//hybridrel:hotpath
func (d *Dataset) pathEq(ri int32, p []asrel.ASN) bool {
	r := &d.recs[ri]
	if int(r.end-r.off) != len(p) {
		return false
	}
	for i, id := range d.arena[r.off:r.end] {
		if d.in.ASN(id) != p[i] {
			return false
		}
	}
	return true
}

// rehash (re)builds the dedup table sized for the current record
// count, re-probing with each rec's cached hash.
func (d *Dataset) rehash() {
	size := 64
	for size < (len(d.recs)+1)*2 {
		size *= 2
	}
	d.tab = make([]int32, size)
	for i := range d.recs {
		d.tabInsert(d.recs[i].hash, int32(i))
	}
}

// tabInsert places rec index ri into the first free slot of its probe
// sequence. The caller has already verified the path is absent.
func (d *Dataset) tabInsert(h uint32, ri int32) {
	mask := uint64(len(d.tab) - 1)
	i := uint64(h) & mask
	for d.tab[i] != 0 {
		i = (i + 1) & mask
	}
	d.tab[i] = ri + 1
}

// find returns the rec index of the cleaned path, or -1. The cached
// record hash pre-filters probe collisions so the element-wise path
// compare runs (essentially) only on the true match.
//
//hybridrel:hotpath
func (d *Dataset) find(h uint32, p []asrel.ASN) int32 {
	mask := uint64(len(d.tab) - 1)
	i := uint64(h) & mask
	for {
		e := d.tab[i]
		if e == 0 {
			return -1
		}
		if d.recs[e-1].hash == h && d.pathEq(e-1, p) {
			return e - 1
		}
		i = (i + 1) & mask
	}
}

// AddPath records one raw path observation. Paths are cleaned and
// deduplicated; repeated observations merge their prefixes and keep the
// first-seen attributes (identical vantages announce identical
// attributes for one path).
//
// The steady-state cost of a duplicate observation — by far the common
// case at route-collector scale — is one hash over the cleaned AS
// sequence and one open-addressed probe: no allocation, no interner
// lookups, no locking.
//
//hybridrel:hotpath
func (d *Dataset) AddPath(raw []asrel.ASN, prefix netip.Prefix, comms []bgp.Community, locPrf uint32, hasLocPrf bool) error {
	d.observations++
	d.mutations++
	p, err := d.cleanScr(raw)
	if err != nil {
		d.droppedLoops++
		return err
	}
	idx, created := d.addRec(p, comms, locPrf, hasLocPrf)
	if created {
		for i := 1; i < len(p); i++ {
			d.accum.Add(asrel.Key(p[i-1], p[i]), 1)
		}
	}
	rec := &d.recs[idx]
	rec.obs++
	if prefix.IsValid() {
		if packed := packPrefix(prefix); !d.hasPrefix(rec, packed) {
			d.addPrefix(rec, packed)
		}
	}
	return nil
}

// addRec dedups the cleaned path p, inserting a new record with the
// given first-seen attributes when absent. Link accounting is the
// caller's: AddPath counts links at record creation, the live layer at
// refcount activation.
//
//hybridrel:hotpath
func (d *Dataset) addRec(p []asrel.ASN, comms []bgp.Community, locPrf uint32, hasLocPrf bool) (idx int32, created bool) {
	if d.tab == nil || (len(d.recs)+1)*4 > len(d.tab)*3 {
		d.rehash()
	}
	h := hashASNs(p)
	idx = d.find(h, p)
	if idx >= 0 {
		return idx, false
	}
	idx = int32(len(d.recs))
	off := uint32(len(d.arena))
	for _, a := range p {
		d.arena = append(d.arena, d.in.Intern(a))
	}
	commOff := uint32(len(d.commArena))
	d.commArena = append(d.commArena, comms...)
	d.recs = append(d.recs, pathRec{
		off: off, end: uint32(len(d.arena)),
		commOff: commOff, commEnd: uint32(len(d.commArena)),
		hash:   h,
		locPrf: locPrf, hasLocPrf: hasLocPrf,
		moreIdx: -1,
	})
	d.tabInsert(h, idx)
	if d.sorted && idx > 0 && d.comparePathAt(idx, idx-1) < 0 {
		d.sorted = false
	}
	return idx, true
}

// AddMRT ingests a TABLE_DUMP_V2 archive, keeping only RIB records of
// this dataset's plane. Records of other types or planes are counted
// and skipped; malformed records abort with an error. The decode runs
// through the reader's visitor path, so a record costs no allocations
// beyond the unique paths it contributes.
func (d *Dataset) AddMRT(r io.Reader) error {
	mr := mrt.NewReader(r)
	return mr.Visit(func(rec *mrt.Record) error {
		rib, ok := rec.Message.(*mrt.RIB)
		if !ok {
			return nil
		}
		v6 := rib.Prefix.Addr().Is6()
		if (d.AF == asrel.IPv6) != v6 {
			d.skippedAF++
			return nil
		}
		for i := range rib.Entries {
			e := &rib.Entries[i]
			path := e.Attrs.EffectivePath()
			if path.HasSet() {
				d.observations++
				d.droppedSets++
				continue
			}
			d.flatScratch = path.AppendFlatten(d.flatScratch[:0])
			if len(d.flatScratch) == 0 {
				d.observations++
				d.droppedSets++
				continue
			}
			// Errors here are loop drops, already tallied.
			_ = d.AddPath(d.flatScratch, rib.Prefix, e.Attrs.Communities, e.Attrs.LocalPref, e.Attrs.HasLocalPref)
		}
		return nil
	})
}

// comparePathAt lexicographically compares two of d's own paths by AS
// number sequence.
func (d *Dataset) comparePathAt(i, j int32) int {
	return comparePaths(d, &d.recs[i], d, &d.recs[j])
}

// comparePaths lexicographically compares one path from each dataset by
// AS number sequence — the canonical order, identical to the byte order
// of the big-endian key strings the pre-interned implementation sorted.
func comparePaths(a *Dataset, ra *pathRec, b *Dataset, rb *pathRec) int {
	pa, pb := a.arena[ra.off:ra.end], b.arena[rb.off:rb.end]
	n := len(pa)
	if len(pb) < n {
		n = len(pb)
	}
	for i := 0; i < n; i++ {
		x, y := a.in.ASN(pa[i]), b.in.ASN(pb[i])
		if x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(pa) < len(pb):
		return -1
	case len(pa) > len(pb):
		return 1
	}
	return 0
}

// sortedIndex returns the record indexes in canonical path order
// without mutating the dataset (safe under the query lock).
func (d *Dataset) sortedIndex() []int32 {
	idx := make([]int32, len(d.recs))
	for i := range idx {
		idx[i] = int32(i)
	}
	if !d.sorted {
		sort.Slice(idx, func(a, b int) bool { return d.comparePathAt(idx[a], idx[b]) < 0 })
	}
	return idx
}

// ensureSorted rebuilds arena and recs in canonical path order. It
// mutates the dataset and must only run in mutation contexts (Merge,
// Freeze) — never under a query accessor.
func (d *Dataset) ensureSorted() {
	if d.sorted {
		return
	}
	idx := d.sortedIndex()
	arena := make([]uint32, 0, len(d.arena))
	recs := make([]pathRec, 0, len(d.recs))
	var refs []int32
	if d.live != nil {
		refs = make([]int32, 0, len(d.live.refs))
	}
	for _, ri := range idx {
		r := d.recs[ri]
		off := uint32(len(arena))
		arena = append(arena, d.arena[r.off:r.end]...)
		r.off, r.end = off, uint32(len(arena))
		recs = append(recs, r)
		if d.live != nil {
			refs = append(refs, d.live.refs[ri])
		}
	}
	d.arena, d.recs = arena, recs
	if d.live != nil {
		// Record indexes moved: the live Paths order and views restart.
		d.live.refs = refs
		d.live.obs, d.live.order = make([]*PathObs, len(recs)), nil
	}
	d.sorted = true
	d.tab = nil // record indexes moved; rebuilt on the next AddPath
	d.mutations++
}

// Freeze finalizes ingestion into the frozen form the merge and the
// query accessors consume: pending link occurrences fold into the flat
// index and the path table sorts into canonical order. Pipeline workers
// call it on their shard before the merge, moving the sort cost into
// the parallel phase. Freeze is idempotent, and further mutation stays
// legal — the next query or merge simply re-freezes.
func (d *Dataset) Freeze() {
	d.flatMu.Lock()
	d.flatLocked()
	d.flatMu.Unlock()
	d.ensureSorted()
}

// Merge folds other — a shard of the same plane, typically ingested
// from one archive by a concurrent worker — into d. Merging shards in
// archive order produces exactly the dataset sequential ingestion of
// the same archives in that order would have: paths new to d are
// adopted with their first-seen attributes, paths d already holds keep
// d's attributes and gain other's prefixes and observation counts, and
// the ingest tallies sum. Merge takes ownership of other's records;
// other must not be used afterwards.
//
// Both path tables are frozen sorted and merged with one two-pointer
// walk; the frozen link indexes merge the same way, with the links of
// paths present in both shards subtracted once (each shard counted
// them independently). No per-path re-hashing happens anywhere.
func (d *Dataset) Merge(other *Dataset) error {
	if other == nil {
		return nil
	}
	if d.AF != other.AF {
		return fmt.Errorf("dataset: cannot merge %s shard into %s dataset", other.AF, d.AF)
	}
	dFlat := d.Flat()
	oFlat := other.Flat()
	d.ensureSorted()
	other.ensureSorted()

	arena := make([]uint32, 0, len(d.arena)+len(other.arena))
	recs := make([]pathRec, 0, len(d.recs)+len(other.recs))
	var dup intern.CountsAccum

	adopt := func(src *Dataset, r pathRec, foreign bool) {
		off := uint32(len(arena))
		if foreign {
			// A path adopted from other: re-intern its ASes into d's id
			// space and move its community set and overflow prefixes
			// into d's arenas.
			for _, id := range src.arena[r.off:r.end] {
				arena = append(arena, d.in.Intern(src.in.ASN(id)))
			}
			commOff := uint32(len(d.commArena))
			d.commArena = append(d.commArena, src.commArena[r.commOff:r.commEnd]...)
			r.commOff, r.commEnd = commOff, uint32(len(d.commArena))
			if r.moreIdx >= 0 {
				d.morePrefixes = append(d.morePrefixes, src.morePrefixes[r.moreIdx])
				r.moreIdx = int32(len(d.morePrefixes)) - 1
			}
		} else {
			arena = append(arena, src.arena[r.off:r.end]...)
		}
		r.off, r.end = off, uint32(len(arena))
		recs = append(recs, r)
	}

	i, j := 0, 0
	for i < len(d.recs) && j < len(other.recs) {
		switch cmp := comparePaths(d, &d.recs[i], other, &other.recs[j]); {
		case cmp < 0:
			adopt(d, d.recs[i], false)
			i++
		case cmp > 0:
			adopt(other, other.recs[j], true)
			j++
		default:
			// Same path in both shards: d's attributes win, counts sum,
			// other's new prefixes append in their observed order, and
			// the links other counted for this path are subtracted once.
			r := d.recs[i]
			o := &other.recs[j]
			r.obs += o.obs
			if o.prefix0.valid && !d.hasPrefix(&r, o.prefix0) {
				d.addPrefix(&r, o.prefix0)
			}
			if o.moreIdx >= 0 {
				for _, p := range other.morePrefixes[o.moreIdx] {
					if !d.hasPrefix(&r, p) {
						d.addPrefix(&r, p)
					}
				}
			}
			seq := other.arena[o.off:o.end]
			for k := 1; k < len(seq); k++ {
				dup.Add(asrel.Key(other.in.ASN(seq[k-1]), other.in.ASN(seq[k])), 1)
			}
			adopt(d, r, false)
			i, j = i+1, j+1
		}
	}
	for ; i < len(d.recs); i++ {
		adopt(d, d.recs[i], false)
	}
	for ; j < len(other.recs); j++ {
		adopt(other, other.recs[j], true)
	}

	d.arena, d.recs = arena, recs
	d.sorted = true
	d.tab = nil
	d.mutations++

	d.flatMu.Lock()
	d.flat = intern.SubCounts(intern.MergeCounts(dFlat, oFlat), dup.Freeze())
	d.accum = intern.CountsAccum{}
	d.pathsMemo = nil
	d.flatMu.Unlock()

	d.observations += other.observations
	d.droppedSets += other.droppedSets
	d.droppedLoops += other.droppedLoops
	d.skippedAF += other.skippedAF
	return nil
}

// flatLocked folds any pending occurrences into the frozen index.
// Callers hold flatMu.
func (d *Dataset) flatLocked() *intern.Counts {
	if d.flat == nil || d.accum.Len() > 0 || (d.live != nil && d.live.neg.Len() > 0) {
		batch := d.accum.Freeze()
		if d.flat == nil {
			d.flat = batch
		} else {
			d.flat = intern.MergeCounts(d.flat, batch)
		}
		d.accum.Reset()
		if d.live != nil && d.live.neg.Len() > 0 {
			// Withdrawal deltas: links whose last active path went
			// away since the previous fold. Subtraction drops counts
			// that reach zero, so the flat index always reflects the
			// currently-active paths only.
			d.flat = intern.SubCounts(d.flat, d.live.neg.Freeze())
			d.live.neg.Reset()
		}
	}
	return d.flat
}

// Flat returns the frozen link-visibility index, folding any pending
// occurrences in on first use after ingestion. Safe for concurrent
// callers; the returned Counts is immutable.
func (d *Dataset) Flat() *intern.Counts {
	d.flatMu.Lock()
	defer d.flatMu.Unlock()
	return d.flatLocked()
}

// NumUniquePaths returns the number of distinct cleaned AS paths; for
// a live dataset, the number of currently-active ones.
func (d *Dataset) NumUniquePaths() int {
	if d.live != nil {
		return d.live.active
	}
	return len(d.recs)
}

// NumObservations returns the number of raw path observations ingested,
// including dropped ones.
func (d *Dataset) NumObservations() int { return d.observations }

// Dropped returns the counts of observations rejected for AS_SETs and
// for loops.
func (d *Dataset) Dropped() (sets, loops int) { return d.droppedSets, d.droppedLoops }

// Paths returns all unique path observations ordered by (vantage,
// path) — for a live dataset, the currently-active ones. The PathObs
// values are materialized once and cached until the next mutation (on
// a live dataset, until a mutation of that path's record); the
// returned slice is the caller's.
func (d *Dataset) Paths() []*PathObs {
	d.flatMu.Lock()
	defer d.flatMu.Unlock()
	if d.live != nil {
		return d.livePaths()
	}
	if d.pathsMemo == nil || d.memoAt != d.mutations {
		memo := make([]*PathObs, 0, len(d.recs))
		for _, ri := range d.sortedIndex() {
			memo = append(memo, d.materialize(ri))
		}
		d.pathsMemo = memo
		d.memoAt = d.mutations
	}
	out := make([]*PathObs, len(d.pathsMemo))
	copy(out, d.pathsMemo)
	return out
}

// materialize builds the PathObs view of one record. The path slice is
// fresh; communities alias the arena.
func (d *Dataset) materialize(ri int32) *PathObs {
	r := &d.recs[ri]
	path := make([]asrel.ASN, r.end-r.off)
	for i, id := range d.arena[r.off:r.end] {
		path[i] = d.in.ASN(id)
	}
	var prefixes []netip.Prefix
	if n := d.numPrefixes(r); n > 0 {
		prefixes = make([]netip.Prefix, 0, n)
		prefixes = append(prefixes, r.prefix0.unpack())
		if r.moreIdx >= 0 {
			for _, q := range d.morePrefixes[r.moreIdx] {
				prefixes = append(prefixes, q.unpack())
			}
		}
	}
	var comms []bgp.Community
	if r.commEnd > r.commOff {
		comms = d.commArena[r.commOff:r.commEnd:r.commEnd]
	}
	return &PathObs{
		Vantage:     path[0],
		Path:        path,
		Prefixes:    prefixes,
		Communities: comms,
		LocPrf:      r.locPrf,
		HasLocPrf:   r.hasLocPrf,
		Obs:         int(r.obs),
	}
}

// Links returns the observed link keys in canonical order.
func (d *Dataset) Links() []asrel.LinkKey { return d.Flat().Keys() }

// EachLink calls fn for every observed link in canonical order with
// its unique-path visibility, without materializing a key slice.
func (d *Dataset) EachLink(fn func(k asrel.LinkKey, visibility int)) {
	d.Flat().Each(fn)
}

// NumLinks returns the number of distinct observed links.
func (d *Dataset) NumLinks() int { return d.Flat().Len() }

// HasLink reports whether the link was observed on any path.
func (d *Dataset) HasLink(k asrel.LinkKey) bool { return d.Flat().Has(k) }

// LinkVisibility returns how many unique paths traverse the link.
func (d *Dataset) LinkVisibility(k asrel.LinkKey) int { return d.Flat().Get(k) }

// Graph materializes the observed topology as a graph.
func (d *Dataset) Graph() *topology.Graph {
	g := topology.New()
	d.Flat().Each(func(k asrel.LinkKey, _ int) { g.AddLink(k.Lo, k.Hi) })
	return g
}

// Vantages returns the distinct vantage ASes seen, ascending.
func (d *Dataset) Vantages() []asrel.ASN {
	out := make([]asrel.ASN, 0, len(d.recs))
	for i := range d.recs {
		if d.live != nil && d.live.refs[i] == 0 {
			continue
		}
		out = append(out, d.in.ASN(d.arena[d.recs[i].off]))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n := 0
	for i, v := range out {
		if i == 0 || v != out[n-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}

// DualStack returns the links observed in both planes, in canonical
// order, as one linear two-pointer sweep over the frozen per-plane
// indexes. The arguments may be passed in either order.
func DualStack(a, b *Dataset) []asrel.LinkKey {
	return intern.Join(a.Flat(), b.Flat())
}
