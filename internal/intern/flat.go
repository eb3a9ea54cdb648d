package intern

import (
	"fmt"

	"hybridrel/internal/asrel"
)

// Table is a frozen, flat relationship table: packed canonical link
// keys sorted ascending with a parallel slice of Lo→Hi relationships.
// It is the repository's one read-side relationship table: inference
// emits it, the analysis merges it, and the snapshot encodes it.
// Lookups are binary searches on two contiguous arrays, and iteration
// is in canonical order for free. Build one with a TableBuilder, or
// freeze a mutable asrel.Table with FromTable; a Table is immutable
// and safe for concurrent readers.
type Table struct {
	keys []uint64
	rels []asrel.Rel
}

// FromTable freezes a mutable asrel.Table into its flat form. Every
// stored entry is retained — including entries explicitly stored with
// an Unknown relationship — so encoding the flat form is byte-identical
// to encoding the map form.
func FromTable(t *asrel.Table) *Table {
	if t == nil {
		return &Table{}
	}
	keys := make([]uint64, 0, t.Len())
	t.Links(func(k asrel.LinkKey, _ asrel.Rel) {
		keys = append(keys, Pack(k))
	})
	sortPacked(keys)
	rels := make([]asrel.Rel, len(keys))
	for i, u := range keys {
		rels[i] = t.GetKey(Unpack(u))
	}
	return &Table{keys: keys, rels: rels}
}

// TableFromSorted wraps pre-sorted parallel key/relationship slices as
// a Table without copying or validating them — the mmap loader's
// constructor, where both slices alias sections of a mapped snapshot
// and the format's structural guarantees stand in for the O(n) scan,
// and the live engine's, wrapping its sorted edits for Patch.
// Callers must guarantee keys are strictly ascending and
// len(keys) == len(rels); unsorted keys yield wrong (but memory-safe)
// lookups, never panics.
func TableFromSorted(keys []uint64, rels []asrel.Rel) *Table {
	return &Table{keys: keys, rels: rels}
}

// PackedKeys returns the table's packed key array in ascending order.
// The slice is owned by the table and must not be modified.
func (t *Table) PackedKeys() []uint64 { return t.keys }

// Rels returns the relationship array parallel to PackedKeys. The slice
// is owned by the table and must not be modified.
func (t *Table) Rels() []asrel.Rel { return t.rels }

// Len returns the number of recorded links.
func (t *Table) Len() int { return len(t.keys) }

// GetKey returns the relationship stored for the canonical link key,
// oriented Lo→Hi, or Unknown when the link is absent.
//
//hybridrel:hotpath
func (t *Table) GetKey(k asrel.LinkKey) asrel.Rel {
	if i, ok := searchPacked(t.keys, Pack(k)); ok {
		return t.rels[i]
	}
	return asrel.Unknown
}

// Get returns the relationship of the directed pair (a, b), matching
// asrel.Table.Get's orientation semantics.
//
//hybridrel:hotpath
func (t *Table) Get(a, b asrel.ASN) asrel.Rel {
	k := asrel.Key(a, b)
	r := t.GetKey(k)
	if a != k.Lo {
		r = r.Invert()
	}
	return r
}

// Has reports whether the link {a, b} has a recorded relationship.
func (t *Table) Has(a, b asrel.ASN) bool {
	_, ok := searchPacked(t.keys, Pack(asrel.Key(a, b)))
	return ok
}

// Each calls fn for every recorded link in ascending canonical order
// with its Lo→Hi relationship.
func (t *Table) Each(fn func(k asrel.LinkKey, r asrel.Rel)) {
	for i, u := range t.keys {
		fn(Unpack(u), t.rels[i])
	}
}

// Merge overlays additions onto base with base winning wherever it has
// a Known relationship — the same semantics as cloning base and setting
// each addition whose base entry is unclassified, but as one linear
// two-pointer sweep over the sorted tables.
func Merge(base, additions *Table) *Table {
	out := &Table{
		keys: make([]uint64, 0, base.Len()+additions.Len()),
		rels: make([]asrel.Rel, 0, base.Len()+additions.Len()),
	}
	i, j := 0, 0
	for i < len(base.keys) && j < len(additions.keys) {
		switch {
		case base.keys[i] < additions.keys[j]:
			out.keys = append(out.keys, base.keys[i])
			out.rels = append(out.rels, base.rels[i])
			i++
		case base.keys[i] > additions.keys[j]:
			out.keys = append(out.keys, additions.keys[j])
			out.rels = append(out.rels, additions.rels[j])
			j++
		default:
			r := base.rels[i]
			if !r.Known() {
				r = additions.rels[j]
			}
			out.keys = append(out.keys, base.keys[i])
			out.rels = append(out.rels, r)
			i, j = i+1, j+1
		}
	}
	out.keys = append(out.keys, base.keys[i:]...)
	out.rels = append(out.rels, base.rels[i:]...)
	out.keys = append(out.keys, additions.keys[j:]...)
	out.rels = append(out.rels, additions.rels[j:]...)
	return out
}

// Patch applies edits to base with one two-pointer sweep and returns
// the patched table; base is not modified. Every entry of edits
// replaces base's entry for its link, and an edit recording Unknown
// removes the link (or is dropped, when base lacks it) — the flat form
// of SetKey and Delete on a mutable table. The untouched runs between
// edits are copied whole, so patching a few links of a large table
// costs one copy of it.
func Patch(base, edits *Table) *Table {
	n := base.Len() + edits.Len()
	out := &Table{keys: make([]uint64, 0, n), rels: make([]asrel.Rel, 0, n)}
	i := 0
	for j, u := range edits.keys {
		start := i
		for i < len(base.keys) && base.keys[i] < u {
			i++
		}
		out.keys = append(out.keys, base.keys[start:i]...)
		out.rels = append(out.rels, base.rels[start:i]...)
		if i < len(base.keys) && base.keys[i] == u {
			i++ // superseded by the edit
		}
		if r := edits.rels[j]; r.Known() {
			out.keys = append(out.keys, u)
			out.rels = append(out.rels, r)
		}
	}
	out.keys = append(out.keys, base.keys[i:]...)
	out.rels = append(out.rels, base.rels[i:]...)
	return out
}

// Diff walks two sorted tables with one two-pointer sweep and calls fn
// for every link present in either, in ascending canonical order, with
// the relationship each side records (Unknown when absent) and presence
// flags — explicitly-stored Unknown entries are distinguishable from
// absent links, which matters to change detection. Either table may be
// nil (treated as empty). Links stored on both sides with the same
// relationship are reported too; callers filter for changes.
func Diff(prev, next *Table, fn func(k asrel.LinkKey, from, to asrel.Rel, inPrev, inNext bool)) {
	var pk, nk []uint64
	var pv, nv []asrel.Rel
	if prev != nil {
		pk, pv = prev.keys, prev.rels
	}
	if next != nil {
		nk, nv = next.keys, next.rels
	}
	i, j := 0, 0
	for i < len(pk) && j < len(nk) {
		switch {
		case pk[i] < nk[j]:
			fn(Unpack(pk[i]), pv[i], asrel.Unknown, true, false)
			i++
		case pk[i] > nk[j]:
			fn(Unpack(nk[j]), asrel.Unknown, nv[j], false, true)
			j++
		default:
			fn(Unpack(pk[i]), pv[i], nv[j], true, true)
			i, j = i+1, j+1
		}
	}
	for ; i < len(pk); i++ {
		fn(Unpack(pk[i]), pv[i], asrel.Unknown, true, false)
	}
	for ; j < len(nk); j++ {
		fn(Unpack(nk[j]), asrel.Unknown, nv[j], false, true)
	}
}

// TableBuilder assembles a Table from entries arriving in strictly
// ascending canonical order — the snapshot decoder's shape, where the
// wire format already guarantees sortedness and the builder merely
// enforces it.
type TableBuilder struct {
	t    Table
	last uint64
}

// Grow pre-allocates capacity for n entries, bounded by the caller.
func (b *TableBuilder) Grow(n int) {
	b.t.keys = make([]uint64, 0, n)
	b.t.rels = make([]asrel.Rel, 0, n)
}

// Append adds one entry. Entries must arrive in strictly ascending
// canonical key order; a violation returns an error.
func (b *TableBuilder) Append(k asrel.LinkKey, r asrel.Rel) error {
	u := Pack(k)
	if len(b.t.keys) > 0 && u <= b.last {
		return fmt.Errorf("intern: link %s out of canonical order", k)
	}
	b.last = u
	b.t.keys = append(b.t.keys, u)
	b.t.rels = append(b.t.rels, r)
	return nil
}

// Table returns the assembled table. The builder must not be used
// afterwards.
func (b *TableBuilder) Table() *Table { return &b.t }

// Counts is a frozen link multiset: packed canonical keys sorted
// ascending with a parallel slice of per-link counts (unique-path
// visibility in the dataset layer). Build with BuildCounts; a Counts is
// immutable and safe for concurrent readers.
type Counts struct {
	keys   []uint64
	counts []int32
}

// BuildCounts aggregates a sequence of link occurrences — one entry per
// (unique path, link) pair in the dataset layer — into the sorted
// counted form. The input slice is not modified.
func BuildCounts(seq []asrel.LinkKey) *Counts {
	packed := make([]uint64, len(seq))
	for i, k := range seq {
		packed[i] = Pack(k)
	}
	sortPacked(packed)
	c := &Counts{}
	for i := 0; i < len(packed); {
		j := i + 1
		for j < len(packed) && packed[j] == packed[i] {
			j++
		}
		c.keys = append(c.keys, packed[i])
		c.counts = append(c.counts, int32(j-i))
		i = j
	}
	return c
}

// Len returns the number of distinct links.
func (c *Counts) Len() int { return len(c.keys) }

// Has reports whether the link was counted at all.
func (c *Counts) Has(k asrel.LinkKey) bool {
	_, ok := searchPacked(c.keys, Pack(k))
	return ok
}

// Get returns the count of the link, zero when absent.
func (c *Counts) Get(k asrel.LinkKey) int {
	if i, ok := searchPacked(c.keys, Pack(k)); ok {
		return int(c.counts[i])
	}
	return 0
}

// Keys materializes the distinct links in ascending canonical order.
func (c *Counts) Keys() []asrel.LinkKey {
	out := make([]asrel.LinkKey, len(c.keys))
	for i, u := range c.keys {
		out[i] = Unpack(u)
	}
	return out
}

// Each calls fn for every distinct link in ascending canonical order
// with its count.
func (c *Counts) Each(fn func(k asrel.LinkKey, n int)) {
	for i, u := range c.keys {
		fn(Unpack(u), int(c.counts[i]))
	}
}

// MergeCounts sums two counted link sets with one two-pointer sweep:
// the dataset layer's incremental freeze, where a batch of new link
// occurrences is aggregated on its own and folded into the standing
// index instead of re-sorting every occurrence ever seen.
func MergeCounts(a, b *Counts) *Counts {
	out := &Counts{
		keys:   make([]uint64, 0, len(a.keys)+len(b.keys)),
		counts: make([]int32, 0, len(a.keys)+len(b.keys)),
	}
	i, j := 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] < b.keys[j]:
			out.keys = append(out.keys, a.keys[i])
			out.counts = append(out.counts, a.counts[i])
			i++
		case a.keys[i] > b.keys[j]:
			out.keys = append(out.keys, b.keys[j])
			out.counts = append(out.counts, b.counts[j])
			j++
		default:
			out.keys = append(out.keys, a.keys[i])
			out.counts = append(out.counts, a.counts[i]+b.counts[j])
			i, j = i+1, j+1
		}
	}
	out.keys = append(out.keys, a.keys[i:]...)
	out.counts = append(out.counts, a.counts[i:]...)
	out.keys = append(out.keys, b.keys[j:]...)
	out.counts = append(out.counts, b.counts[j:]...)
	return out
}

// Join intersects two counted link sets with one two-pointer sweep,
// returning the common links in ascending canonical order — the
// dual-stack join of the paper, without a hash probe per link. The
// result is nil when the intersection is empty.
func Join(a, b *Counts) []asrel.LinkKey {
	// Counting pass first: both passes are linear scans of two packed
	// arrays, and the exact count means the result is one allocation
	// with no append growth — the sweep is memory-bound either way.
	n := 0
	i, j := 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] < b.keys[j]:
			i++
		case a.keys[i] > b.keys[j]:
			j++
		default:
			n++
			i, j = i+1, j+1
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]asrel.LinkKey, 0, n)
	i, j = 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] < b.keys[j]:
			i++
		case a.keys[i] > b.keys[j]:
			j++
		default:
			out = append(out, Unpack(a.keys[i]))
			i, j = i+1, j+1
		}
	}
	return out
}

// SweepCounts walks every link of cs in ascending canonical order and
// calls fn with its count and the relationship t records for it
// (Unknown when absent; t may be nil). Like Sweep, the pass is a linear
// cursor advance, not a binary search per link.
func SweepCounts(cs *Counts, t *Table, fn func(k asrel.LinkKey, n int, r asrel.Rel)) {
	var tk []uint64
	var tv []asrel.Rel
	if t != nil {
		tk, tv = t.keys, t.rels
	}
	j := 0
	for i, u := range cs.keys {
		r := asrel.Unknown
		for j < len(tk) && tk[j] < u {
			j++
		}
		if j < len(tk) && tk[j] == u {
			r = tv[j]
		}
		fn(Unpack(u), int(cs.counts[i]), r)
	}
}

// Sweep walks keys — which must be in ascending canonical order, as
// Join and Counts.Keys produce — and calls fn for each with the
// relationships t4 and t6 record for it (Unknown when absent). Either
// table may be nil. The walk advances cursors into the sorted tables
// instead of binary-searching per key, so a full pass over the
// dual-stack join is linear in the table sizes.
func Sweep(keys []asrel.LinkKey, t4, t6 *Table, fn func(k asrel.LinkKey, r4, r6 asrel.Rel)) {
	var k4, k6 []uint64
	var v4, v6 []asrel.Rel
	if t4 != nil {
		k4, v4 = t4.keys, t4.rels
	}
	if t6 != nil {
		k6, v6 = t6.keys, t6.rels
	}
	i4, i6 := 0, 0
	for _, k := range keys {
		u := Pack(k)
		rel4, rel6 := asrel.Unknown, asrel.Unknown
		for i4 < len(k4) && k4[i4] < u {
			i4++
		}
		if i4 < len(k4) && k4[i4] == u {
			rel4 = v4[i4]
		}
		for i6 < len(k6) && k6[i6] < u {
			i6++
		}
		if i6 < len(k6) && k6[i6] == u {
			rel6 = v6[i6]
		}
		fn(k, rel4, rel6)
	}
}
