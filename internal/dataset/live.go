// Live delta layer: withdrawal handling on top of the interned arena.
//
// A live dataset is the mutable table a streaming ingester maintains:
// routes arrive as announcements and withdrawals, and every derived
// product (flat link index, Paths, coverage counts) must reflect only
// the currently-active routes. Rather than rebuilding anything, the
// layer adds per-path refcounts over the existing append-only records:
// an announcement retains the path (inserting the record on first
// sight), a withdrawal releases it, and the 1→0 / 0→1 transitions emit
// link count deltas into a pair of intern.CountsAccum accumulators
// (positive and negative) that fold lazily into the flat index exactly
// the way batch ingestion already folded its pending counts. Records
// are never deleted — a withdrawn-then-reannounced path reactivates
// its old record, keeping the hot loop allocation-free under flapping.
//
// Paths on a live dataset is incremental too. The canonical record
// order persists across calls: only records created since the last
// call are sorted, then merged into the standing order. Each record's
// materialized PathObs is kept until Retain changes its observation
// count or prefixes (or Release withdraws it), so a call re-materializes
// only the records touched since the previous one. The cache is filled
// by Paths alone — RecObs views are transient — so records the feed
// merely flapped through stay unmaterialized.
package dataset

import (
	"fmt"
	"net/netip"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
	"hybridrel/internal/intern"
)

// liveState is the delta layer of a streaming dataset.
type liveState struct {
	refs   []int32            // per-record active refcount, parallel to recs
	neg    intern.CountsAccum // link releases not yet folded into flat
	active int                // records with refs > 0

	order []int32    // record indexes in canonical path order, as of the last Paths
	obs   []*PathObs // per-record Paths view, parallel to recs; nil until built or once stale
}

// NewLive returns an empty live dataset for one plane. Live datasets
// support Retain/Release in addition to the batch API; they must not
// be frozen or merged (record indexes handed to callers would move).
func NewLive(af asrel.AF) *Dataset {
	d := New(af)
	d.live = &liveState{}
	return d
}

// Live reports whether the dataset carries the streaming delta layer.
func (d *Dataset) Live() bool { return d.live != nil }

// Retain records one announced route, returning the path's record
// index — the handle a RIB keeps and later passes to Release — and
// whether the path went from inactive to active (first announcement,
// or re-announcement after withdrawal). Attributes are first-seen-wins
// exactly like AddPath: the feed model announces identical attributes
// for one (vantage, path), so a revived record's stored attributes are
// still the right ones.
func (d *Dataset) Retain(raw []asrel.ASN, prefix netip.Prefix, comms []bgp.Community, locPrf uint32, hasLocPrf bool) (idx int32, activated bool, err error) {
	if d.live == nil {
		return -1, false, fmt.Errorf("dataset: Retain on a non-live dataset")
	}
	d.observations++
	d.mutations++
	p, err := d.cleanScr(raw)
	if err != nil {
		d.droppedLoops++
		return -1, false, err
	}
	idx, created := d.addRec(p, comms, locPrf, hasLocPrf)
	if created {
		d.live.refs = append(d.live.refs, 0)
		d.live.obs = append(d.live.obs, nil)
	}
	if d.live.refs[idx] == 0 {
		activated = true
		d.live.active++
		for i := 1; i < len(p); i++ {
			d.accum.Add(asrel.Key(p[i-1], p[i]), 1)
		}
	}
	d.live.refs[idx]++
	d.live.obs[idx] = nil // Obs moves on every Retain; the view is stale
	rec := &d.recs[idx]
	rec.obs++
	if prefix.IsValid() {
		if packed := packPrefix(prefix); !d.hasPrefix(rec, packed) {
			d.addPrefix(rec, packed)
		}
	}
	return idx, activated, nil
}

// Release drops one reference to the record, reporting whether the
// path went inactive (its links leave the flat index on the next
// fold). Releasing below zero is a caller bug and panics.
func (d *Dataset) Release(idx int32) (deactivated bool) {
	if d.live == nil {
		panic("dataset: Release on a non-live dataset")
	}
	if idx < 0 || int(idx) >= len(d.live.refs) || d.live.refs[idx] == 0 {
		panic(fmt.Sprintf("dataset: Release of inactive record %d", idx))
	}
	d.live.refs[idx]--
	if d.live.refs[idx] > 0 {
		return false
	}
	d.mutations++
	d.live.active--
	d.live.obs[idx] = nil // invisible until revived, and revival re-Retains
	r := &d.recs[idx]
	seq := d.arena[r.off:r.end]
	for i := 1; i < len(seq); i++ {
		d.live.neg.Add(asrel.Key(d.in.ASN(seq[i-1]), d.in.ASN(seq[i])), 1)
	}
	return true
}

// ActiveRefs returns the total number of route references currently
// held across all records — one per retained (vantage, prefix) route.
// At quiescence it must match the ingester's RIB size; a surplus means
// a leaked Retain, a deficit a double Release.
func (d *Dataset) ActiveRefs() int {
	if d.live == nil {
		return 0
	}
	total := 0
	for _, r := range d.live.refs {
		total += int(r)
	}
	return total
}

// RefCount returns the record's active reference count.
func (d *Dataset) RefCount(idx int32) int32 {
	if d.live == nil || idx < 0 || int(idx) >= len(d.live.refs) {
		return 0
	}
	return d.live.refs[idx]
}

// RecObs materializes record idx as a PathObs, active or not — the
// view an incremental inference engine mines when the record's
// activation state flips.
func (d *Dataset) RecObs(idx int32) *PathObs {
	return d.materialize(idx)
}

// livePaths is Paths for a live dataset: the active records in
// canonical order, with the standing order extended by the records
// created since the last call and each view reused until its record
// changed. Callers hold flatMu.
func (d *Dataset) livePaths() []*PathObs {
	l := d.live
	if n := len(l.order); n < len(d.recs) {
		fresh := make([]int32, 0, len(d.recs)-n)
		for ri := n; ri < len(d.recs); ri++ {
			fresh = append(fresh, int32(ri))
		}
		d.sortRecs(fresh)
		l.order = d.mergeOrder(l.order, fresh)
	}
	out := make([]*PathObs, 0, l.active)
	for _, ri := range l.order {
		if l.refs[ri] == 0 {
			continue // withdrawn path; invisible until re-announced
		}
		p := l.obs[ri]
		if p == nil {
			p = d.materialize(ri)
			l.obs[ri] = p
		}
		out = append(out, p)
	}
	return out
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
