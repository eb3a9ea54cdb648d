// Package dataset assembles the observed measurement data the paper
// works with: it ingests MRT TABLE_DUMP_V2 archives and live UPDATE
// feeds, cleans the AS paths (prepending removal, loop and AS_SET
// rejection), deduplicates them, extracts the AS-level links of one
// address-family plane, and joins two planes into the dual-stack link
// set.
//
// Everything downstream — the baseline inference algorithms, the
// communities miner, the LocPrf calibration, the valley analysis —
// consumes a Dataset, never the generator's ground truth.
//
// One table serves batch and live ingest. Every route enters through
// Admit (AddMRT and the live applier alike), which retains its cleaned
// path: each unique path is one record carrying a reference count,
// the record's links enter the link index when the count goes 0→1 and
// leave it when Release takes it back to 0. A batch dataset is simply
// one nobody releases from. Records are never deleted — a withdrawn-
// then-reannounced path reactivates its old record, keeping the hot
// loop allocation-free under flapping — and every derived product
// (the flat link index, Paths, Vantages, the counts) reflects the
// active records only.
//
// A record holds what inference reads of a path and nothing else: the
// vantage-first cleaned AS sequence, the community set and LOCAL_PREF
// of its first observation, and the reference count. Inference sees a
// record through a cursor: Record fills a caller-owned PathObs in
// place, and a Paths walk reuses one PathObs for every record it
// yields, so no walk builds a per-record heap object.
//
// Record indexes are the handles Retain returns and Release takes.
// Freeze and Merge renumber records into canonical path order, so a
// caller holding handles must never call them; the live applier never
// does, and batch ingest holds none.
//
// The ingest hot path is allocation-free in the steady state: paths are
// interned into one grown arena of dense uint32 AS identifiers,
// deduplicated through an open-addressed hash over the interned
// sequence (no per-observation key strings), and link activations
// and releases accumulate into open-addressed counters that fold into
// the sorted intern.Counts index on the next query. Per-path costs are
// paid only for *unique* paths; a duplicate observation touches nothing
// but a hash probe and two counters.
package dataset

import (
	"cmp"
	"fmt"
	"io"
	"iter"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
	"hybridrel/internal/intern"
	"hybridrel/internal/mrt"
	"hybridrel/internal/topology"
)

// PathObs is one deduplicated AS path with the attributes relationship
// inference reads. The dataset fills one in place (Record, Paths); a
// filled PathObs aliases the dataset's community arena.
type PathObs struct {
	// Vantage is the collector peer (the first AS of Path).
	Vantage asrel.ASN
	// Path runs vantage → origin, cleaned of prepending.
	Path []asrel.ASN
	// Communities is the community set of the route.
	Communities []bgp.Community
	// LocPrf is the vantage's LOCAL_PREF when the feed provides it.
	LocPrf    uint32
	HasLocPrf bool
}

// Origin returns the last AS of the path. The second return is false
// for a zero-length path — a PathObs this package never constructs
// (admission rejects empty paths), but one a future caller or a
// decoded artifact could hand us; indexing Path[len-1] unguarded would
// panic on it.
func (p *PathObs) Origin() (asrel.ASN, bool) {
	if len(p.Path) == 0 {
		return 0, false
	}
	return p.Path[len(p.Path)-1], true
}

// pathRec is the internal, arena-backed form of one unique path: its
// interned AS sequence lives in the path arena at [off, end), its
// community set in the community arena at [commOff, commEnd), and its
// first-seen LOCAL_PREF inline. hash caches the dedup hash so table
// growth re-probes without recomputing it. refs counts the routes
// currently retaining the path (zero once every one was released).
//
// The record is deliberately pointer-free: the recs array is the
// largest allocation ingestion grows, and keeping it out of the
// garbage collector's scan phase (and its growth out of the
// write-barrier path) is a measurable share of ingest wall-clock.
type pathRec struct {
	off, end         uint32
	commOff, commEnd uint32
	hash             uint32
	refs             int32
	locPrf           uint32
	hasLocPrf        bool
}

// Dataset is the observed data of one address-family plane.
//
// Unique paths are stored as interned uint32 sequences in one arena
// slice with per-path records alongside; deduplication probes an
// open-addressed table keyed by a hash of the interned sequence. Link
// activations and releases are accumulated in open-addressed counters
// and folded on the next query into a sorted intern.Counts — the
// interned representation every link lookup, the dual-stack join, and
// the snapshot capture run on. The fold is incremental: only deltas
// that arrived since the last freeze are sorted and merged into the
// standing index, so steady-state memory is O(distinct links), not
// O(occurrences).
type Dataset struct {
	AF asrel.AF

	in        *intern.Interner
	arena     []uint32        // interned AS ids of every unique path, concatenated
	commArena []bgp.Community // community sets of every unique path, concatenated
	recs      []pathRec       // one record per unique path

	// tab is the open-addressed dedup index: slot values are rec index
	// plus one, zero meaning empty. nil after a Merge (merged datasets
	// are usually only queried); the next Retain rebuilds it.
	tab []int32

	// sorted reports that recs is in canonical path order (lexicographic
	// by AS sequence) — the order Merge's two-pointer walk consumes and
	// Paths() returns. Appending an out-of-order path clears it.
	sorted bool

	cleanScratch []asrel.ASN        // collapsed-path scratch for Retain
	flatScratch  []asrel.ASN        // flattened AS-path scratch for Admit
	longSeen     map[asrel.ASN]bool // loop-check scratch for long paths

	active int // records with refs > 0

	// flatMu guards the lazily-built flat index and the Paths order:
	// derived-product accessors may race on the first query after
	// ingest. Mutation concurrent with queries remains unsupported —
	// which is why Retain itself takes no lock.
	flatMu sync.Mutex
	accum  intern.CountsAccum // link activations not yet folded into flat
	neg    intern.CountsAccum // link releases not yet folded into flat
	flat   *intern.Counts     // nil until the first freeze

	// order holds the record indexes in canonical path order as of the
	// last Paths walk; the next walk extends it by the records created
	// since. Freeze and Merge renumber records and drop it.
	order []int32

	// ingest tallies
	observations int
	droppedSets  int
	droppedLoops int
}

// New returns an empty dataset for one plane.
func New(af asrel.AF) *Dataset {
	return &Dataset{
		AF:     af,
		in:     intern.NewInterner(),
		sorted: true,
	}
}

// cleanPathQuadraticMax bounds the pairwise loop check of cleanScr's
// map-free branch; real AS paths are far shorter.
const cleanPathQuadraticMax = 32

// cleanScr collapses prepending of a non-empty raw path into the
// dataset's reusable scratch and rejects loops, all without allocating
// in the steady state. The returned slice is the scratch, valid until
// the next call. Note it works on raw AS numbers: a duplicate
// observation — the overwhelming steady-state case — never touches the
// interner.
//
//hybridrel:hotpath
func (d *Dataset) cleanScr(raw []asrel.ASN) ([]asrel.ASN, error) {
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

// AddPath records one raw path observation: Retain without the handle,
// for callers that never release.
//
// The steady-state cost of a duplicate observation — by far the common
// case at route-collector scale — is one hash over the cleaned AS
// sequence and one open-addressed probe: no allocation, no interner
// lookups, no locking.
//
//hybridrel:hotpath
func (d *Dataset) AddPath(raw []asrel.ASN, comms []bgp.Community, locPrf uint32, hasLocPrf bool) error {
	_, _, err := d.Retain(raw, comms, locPrf, hasLocPrf)
	return err
}

// Retain records one route: the raw path is cleaned and deduplicated,
// and the route takes a reference on the path's record. It returns the
// record index — the handle a RIB keeps and later passes to Release —
// and whether the path went from inactive to active (first sight, or
// re-announcement after its last release), which is when its links
// enter the link index. Repeated observations keep the first-seen
// attributes: a vantage announces identical attributes for one path,
// so a revived record's stored attributes are still the right ones. An
// empty path is tallied as a set drop and a loop as a loop drop, and
// both are rejected.
//
//hybridrel:hotpath
func (d *Dataset) Retain(raw []asrel.ASN, comms []bgp.Community, locPrf uint32, hasLocPrf bool) (idx int32, activated bool, err error) {
	d.observations++
	if len(raw) == 0 {
		d.droppedSets++
		return -1, false, fmt.Errorf("dataset: empty AS path")
	}
	p, err := d.cleanScr(raw)
	if err != nil {
		d.droppedLoops++
		return -1, false, err
	}
	idx = d.addRec(p, comms, locPrf, hasLocPrf)
	rec := &d.recs[idx]
	if rec.refs == 0 {
		activated = true
		d.active++
		for i := 1; i < len(p); i++ {
			d.accum.Add(asrel.Key(p[i-1], p[i]), 1)
		}
	}
	rec.refs++
	return idx, activated, nil
}

// Release drops one reference to the record, reporting whether the
// path went inactive (its links leave the link index on the next
// fold). Releasing an inactive record is a caller bug and panics.
func (d *Dataset) Release(idx int32) (deactivated bool) {
	if idx < 0 || int(idx) >= len(d.recs) || d.recs[idx].refs == 0 {
		panic(fmt.Sprintf("dataset: Release of inactive record %d", idx))
	}
	r := &d.recs[idx]
	r.refs--
	if r.refs > 0 {
		return false
	}
	d.active--
	seq := d.arena[r.off:r.end]
	for i := 1; i < len(seq); i++ {
		d.neg.Add(asrel.Key(d.in.ASN(seq[i-1]), d.in.ASN(seq[i])), 1)
	}
	return true
}

// ActiveRefs returns the total number of route references currently
// held across all records — one per retained route. For a live
// applier at quiescence it must match the RIB size; a surplus means a
// leaked Retain, a deficit a double Release.
func (d *Dataset) ActiveRefs() int {
	total := 0
	for i := range d.recs {
		total += int(d.recs[i].refs)
	}
	return total
}

// Record fills p with record idx, active or not, and returns p — the
// cursor an incremental inference engine reads a record through when
// its activation state flips, and the one every Paths walk uses. The
// AS path goes into p.Path's capacity, reused across calls;
// Communities alias the dataset's community arena. Both stay valid
// until the next Record into p.
//
//hybridrel:hotpath
func (d *Dataset) Record(idx int32, p *PathObs) *PathObs {
	r := &d.recs[idx]
	seq, asns := d.arena[r.off:r.end], d.in.ASNs()
	path := slices.Grow(p.Path[:0], len(seq))[:len(seq)]
	for i, id := range seq {
		path[i] = asns[id]
	}
	p.Vantage, p.Path = path[0], path
	p.Communities = nil
	if r.commEnd > r.commOff {
		p.Communities = d.commArena[r.commOff:r.commEnd:r.commEnd]
	}
	p.LocPrf, p.HasLocPrf = r.locPrf, r.hasLocPrf
	return p
}

// addRec dedups the cleaned path p, inserting an unreferenced record
// with the given first-seen attributes when absent, and returns its
// index.
//
//hybridrel:hotpath
func (d *Dataset) addRec(p []asrel.ASN, comms []bgp.Community, locPrf uint32, hasLocPrf bool) int32 {
	if d.tab == nil || (len(d.recs)+1)*4 > len(d.tab)*3 {
		d.rehash()
	}
	h := hashASNs(p)
	if idx := d.find(h, p); idx >= 0 {
		return idx
	}
	idx := int32(len(d.recs))
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
	})
	d.tabInsert(h, idx)
	if d.sorted && idx > 0 && d.comparePathAt(idx, idx-1) < 0 {
		d.sorted = false
	}
	return idx
}

// Admit is the route-admission step batch and live ingest share. The
// route's effective AS path (AS4_PATH merged in) is rejected when it
// holds an AS_SET, otherwise flattened and retained with the route's
// communities and LOCAL_PREF. Every call is one observation, and a
// rejected route is tallied as a set drop (AS_SET or empty path) or a
// loop drop; ok is false then. Otherwise idx and activated are
// Retain's.
func (d *Dataset) Admit(attrs *bgp.Attrs) (idx int32, activated, ok bool) {
	path := attrs.EffectivePath()
	if path.HasSet() {
		d.observations++
		d.droppedSets++
		return -1, false, false
	}
	d.flatScratch = path.AppendFlatten(d.flatScratch[:0])
	idx, activated, err := d.Retain(d.flatScratch, attrs.Communities, attrs.LocalPref, attrs.HasLocalPref)
	return idx, activated, err == nil
}

// AddMRT ingests a TABLE_DUMP_V2 archive, admitting every RIB entry of
// this dataset's plane. Records of other types or planes are skipped;
// malformed records abort with an error. The decode runs through the
// reader's visitor path, so a record costs no allocations beyond the
// unique paths it contributes.
func (d *Dataset) AddMRT(r io.Reader) error {
	mr := mrt.NewReader(r)
	return mr.Visit(func(rec *mrt.Record) error {
		rib, ok := rec.Message.(*mrt.RIB)
		if !ok || (d.AF == asrel.IPv6) != rib.Prefix.Addr().Is6() {
			return nil
		}
		for i := range rib.Entries {
			d.Admit(&rib.Entries[i].Attrs)
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

// recsFrom returns the record indexes from lo to the last, ascending.
func (d *Dataset) recsFrom(lo int) []int32 {
	idx := make([]int32, 0, len(d.recs)-lo)
	for ri := lo; ri < len(d.recs); ri++ {
		idx = append(idx, int32(ri))
	}
	return idx
}

// rankedRec is one record's sort entry: the packed ranks of its path's
// first key window of hops and of the window after it.
type rankedRec struct {
	key, next uint64
	rec       int32
}

// sortRecs sorts record indexes into canonical path order. A comparator
// over AS numbers would resolve every interned id through the interner
// — a cache miss per hop per comparison — so the distinct ASNs are
// ranked once, in ASN order, and each record gets two packed keys of
// rank+1 values at bits.Len(#ASNs) bits per hop: one for its first
// window of hops and one for the window after it. Rank order is ASN
// order and 0 marks the end of a path, so the key pair orders paths
// exactly as their AS numbers do up to two windows of hops; only paths
// agreeing on both windows fall back to the AS-number comparator.
func (d *Dataset) sortRecs(idx []int32) {
	if len(idx) < 2 {
		return
	}
	rank := d.ranks()
	w := bits.Len(uint(len(rank)))
	hops := 64 / w
	window := func(p []uint32) uint64 {
		var key uint64
		for j, id := range p[:min(len(p), hops)] {
			key |= uint64(rank[id]) << (64 - w*(j+1))
		}
		return key
	}
	ks := make([]rankedRec, len(idx))
	for i, ri := range idx {
		r := &d.recs[ri]
		p := d.arena[r.off:r.end]
		ks[i] = rankedRec{window(p), window(p[min(len(p), hops):]), ri}
	}
	slices.SortFunc(ks, func(a, b rankedRec) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		if a.next != b.next {
			return cmp.Compare(a.next, b.next)
		}
		return d.comparePathAt(a.rec, b.rec)
	})
	for i, k := range ks {
		idx[i] = k.rec
	}
}

// ranks returns each interned id's rank+1 among the interned ASNs in
// ascending ASN order: the ids of the smallest and largest ASNs map to
// 1 and Len().
func (d *Dataset) ranks() []uint32 {
	asns := d.in.ASNs()
	order := make([]uint64, len(asns))
	for id, a := range asns {
		order[id] = uint64(a)<<32 | uint64(id)
	}
	slices.Sort(order)
	rank := make([]uint32, len(asns))
	for i, u := range order {
		rank[uint32(u)] = uint32(i) + 1
	}
	return rank
}

// ensureSorted rebuilds arena and recs in canonical path order. It
// mutates the dataset and must only run in mutation contexts (Merge,
// Freeze) — never under a query accessor.
func (d *Dataset) ensureSorted() {
	if d.sorted {
		return
	}
	idx := d.recsFrom(0)
	d.sortRecs(idx)
	arena := make([]uint32, 0, len(d.arena))
	recs := make([]pathRec, 0, len(d.recs))
	for _, ri := range idx {
		r := d.recs[ri]
		off := uint32(len(arena))
		arena = append(arena, d.arena[r.off:r.end]...)
		r.off, r.end = off, uint32(len(arena))
		recs = append(recs, r)
	}
	d.arena, d.recs = arena, recs
	d.sorted = true
	// Record indexes moved: the dedup table is rebuilt on the next
	// Retain, and the Paths order restarts.
	d.tab = nil
	d.order = nil
}

// Freeze finalizes ingestion into the frozen form the merge and the
// query accessors consume: pending link deltas fold into the flat
// index and the path table sorts into canonical order. Pipeline workers
// call it on their shard before the merge, moving the sort cost into
// the parallel phase. Freeze is idempotent, and further mutation stays
// legal — the next query or merge simply re-freezes. Sorting renumbers
// the records, so a caller holding Retain handles must not call it.
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
// d's attributes, and the ingest tallies sum, as do the records'
// reference counts. Merge takes ownership of other's records; other
// must not be used afterwards. It renumbers d's records, so a caller
// holding Retain handles on either dataset must not call it.
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
	// ids translates other's interned ids to d's, interning each on
	// first use — in merge order, so d assigns ids exactly as it would
	// interning hop by hop. Zero marks an id not yet translated.
	ids := make([]uint32, other.in.Len())
	var dup intern.CountsAccum
	active := 0

	adopt := func(src *Dataset, r pathRec, foreign bool) {
		off := uint32(len(arena))
		if foreign {
			// A path adopted from other: re-intern its ASes into d's id
			// space and move its community set into d's arena.
			for _, id := range src.arena[r.off:r.end] {
				if ids[id] == 0 {
					ids[id] = d.in.Intern(src.in.ASN(id)) + 1
				}
				arena = append(arena, ids[id]-1)
			}
			commOff := uint32(len(d.commArena))
			d.commArena = append(d.commArena, src.commArena[r.commOff:r.commEnd]...)
			r.commOff, r.commEnd = commOff, uint32(len(d.commArena))
		} else {
			arena = append(arena, src.arena[r.off:r.end]...)
		}
		r.off, r.end = off, uint32(len(arena))
		recs = append(recs, r)
		if r.refs > 0 {
			active++
		}
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
			// Same path in both shards: d's attributes win, reference
			// counts sum, and when both shards counted this path's
			// links, other's count is subtracted once.
			r := d.recs[i]
			o := &other.recs[j]
			both := r.refs > 0 && o.refs > 0
			r.refs += o.refs
			if both {
				seq := other.arena[o.off:o.end]
				for k := 1; k < len(seq); k++ {
					dup.Add(asrel.Key(other.in.ASN(seq[k-1]), other.in.ASN(seq[k])), 1)
				}
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

	d.arena, d.recs, d.active = arena, recs, active
	d.sorted = true
	d.tab = nil

	d.flatMu.Lock()
	d.flat = intern.SubCounts(intern.MergeCounts(dFlat, oFlat), dup.Freeze())
	d.accum, d.neg = intern.CountsAccum{}, intern.CountsAccum{}
	d.order = nil
	d.flatMu.Unlock()

	d.observations += other.observations
	d.droppedSets += other.droppedSets
	d.droppedLoops += other.droppedLoops
	return nil
}

// flatLocked folds any pending link deltas into the frozen index.
// Callers hold flatMu.
func (d *Dataset) flatLocked() *intern.Counts {
	if d.flat == nil || d.accum.Len() > 0 || d.neg.Len() > 0 {
		batch := d.accum.Freeze()
		if d.flat == nil {
			d.flat = batch
		} else {
			d.flat = intern.MergeCounts(d.flat, batch)
		}
		d.accum.Reset()
		if d.neg.Len() > 0 {
			// Release deltas: links whose last active path went away
			// since the previous fold. Subtraction drops counts that
			// reach zero, so the flat index always reflects the
			// currently-active paths only.
			d.flat = intern.SubCounts(d.flat, d.neg.Freeze())
			d.neg.Reset()
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

// NumUniquePaths returns the number of distinct cleaned AS paths
// currently retained.
func (d *Dataset) NumUniquePaths() int { return d.active }

// NumObservations returns the number of raw path observations ingested,
// including dropped ones.
func (d *Dataset) NumObservations() int { return d.observations }

// Dropped returns the counts of observations rejected for an AS_SET or
// an empty path, and for loops.
func (d *Dataset) Dropped() (sets, loops int) { return d.droppedSets, d.droppedLoops }

// Paths returns a walk over the currently-retained unique paths in
// canonical (vantage, path) order. Each walk extends the canonical
// record order under flatMu — only records created since the previous
// walk are sorted, then merged in — and yields one walk-local PathObs
// filled by Record for every active record. A yielded PathObs is valid
// only until the next step: a caller keeping a path past it copies
// Path. Concurrent walks are safe; a walk concurrent with mutation is
// not.
func (d *Dataset) Paths() iter.Seq[*PathObs] {
	return func(yield func(*PathObs) bool) {
		var p PathObs
		for _, ri := range d.walkOrder() {
			if d.recs[ri].refs == 0 {
				continue // released path; invisible until retained again
			}
			if !yield(d.Record(ri, &p)) {
				return
			}
		}
	}
}

// walkOrder extends the canonical record order by the records created
// since the last walk and returns it.
func (d *Dataset) walkOrder() []int32 {
	d.flatMu.Lock()
	defer d.flatMu.Unlock()
	if n := len(d.order); n < len(d.recs) {
		fresh := d.recsFrom(n)
		if d.sorted {
			// Every record is in canonical order already, and the
			// standing order is the identity.
			d.order = append(d.order, fresh...)
		} else {
			d.sortRecs(fresh)
			d.order = d.mergeOrder(d.order, fresh)
		}
	}
	return d.order
}

// mergeOrder merges two canonically sorted runs of record indexes.
// Paths are unique, so no two records compare equal.
func (d *Dataset) mergeOrder(old, fresh []int32) []int32 {
	out := make([]int32, 0, len(old)+len(fresh))
	i, j := 0, 0
	for i < len(old) && j < len(fresh) {
		if d.comparePathAt(old[i], fresh[j]) < 0 {
			out = append(out, old[i])
			i++
		} else {
			out = append(out, fresh[j])
			j++
		}
	}
	out = append(out, old[i:]...)
	return append(out, fresh[j:]...)
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

// Graph materializes the observed topology as a graph, built straight
// from the sorted link keys.
func (d *Dataset) Graph() *topology.Graph {
	return topology.FromLinks(nil, d.Flat().Keys())
}

// Vantages returns the distinct vantage ASes of the retained paths,
// ascending.
func (d *Dataset) Vantages() []asrel.ASN {
	out := make([]asrel.ASN, 0, len(d.recs))
	for i := range d.recs {
		if d.recs[i].refs == 0 {
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
