// Package locpref implements the paper's second inference method: using
// the Local Preference attribute, calibrated per vantage against the
// communities-derived relationships (the "Rosetta stone"), to classify
// the links between a vantage AS and its neighbors.
//
// LOCAL_PREF is non-transitive, so it only reveals the relationship of
// the vantage's own import edge — but operators order it
// customer > peer > provider with operator-specific values, so once a
// handful of community-confirmed routes anchor a vantage's bands, the
// remaining routes of that vantage classify their first-hop links.
// Routes carrying a traffic-engineering community are excluded from both
// calibration and application: their LocPrf was overridden.
//
// Calibration reads nothing of a path but its TE tagging, its first
// hop and its LocPrf, so each vantage's paths are kept as counted
// Evidence: a TE-filtered count plus one count per (neighbor, LocPrf)
// bucket. Calibrate runs over the buckets and emits each application
// with its multiplicity, so recalibrating a vantage costs its buckets,
// not its paths. Batch Infer groups paths into Evidence; the live
// engine folds each route change into it as it arrives.
package locpref

import (
	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
	"hybridrel/internal/community"
	"hybridrel/internal/dataset"
	"hybridrel/internal/infer"
	"hybridrel/internal/intern"
)

// Config tunes the calibration.
type Config struct {
	// MinSupport is the number of community-confirmed routes a LocPrf
	// value needs before it becomes a usable band. Values above 1 defend
	// against LocPrf overrides whose TE community is undocumented (and
	// therefore invisible to the filter): such values either fail to
	// reach the support threshold or collect conflicting relationships
	// and are discarded.
	MinSupport int
}

// DefaultConfig uses a support threshold of two.
func DefaultConfig() Config { return Config{MinSupport: 2} }

// Result is the outcome of LocPrf inference.
type Result struct {
	// Table holds relationships newly inferred from LocPrf (links the
	// base table did not cover).
	Table *intern.Table
	// CalibratedVantages counts vantages with at least one usable
	// LocPrf→relationship band.
	CalibratedVantages int
	// FilteredTE counts routes excluded because of a TE community.
	FilteredTE int
	// Applied counts routes that produced a vote on an uncovered link.
	Applied int
	// Conflicts counts calibration values discarded for mapping to
	// multiple relationships.
	Conflicts int
}

// Infer calibrates and applies LocPrf per vantage. base is the
// communities-derived table used both as calibration anchor and to skip
// already-covered links.
func Infer(paths []*dataset.PathObs, dict *community.Dictionary, base *intern.Table, cfg Config) *Result {
	res := &Result{}
	votes := infer.NewVoteTable()
	for v, ev := range Group(paths, dict) {
		st := Calibrate(v, ev, base, cfg, votes.AddN)
		if st.Calibrated {
			res.CalibratedVantages++
		}
		res.FilteredTE += st.FilteredTE
		res.Applied += st.Applied
		res.Conflicts += st.Conflicts
	}
	res.Table = votes.Resolve()
	return res
}

// Eligible reports whether a path participates in LocPrf inference at
// all — the filter both Group and the live engine's per-vantage
// bookkeeping apply.
func Eligible(p *dataset.PathObs) bool {
	return p.HasLocPrf && len(p.Path) >= 2
}

// bucket is one (first-hop neighbor, LocPrf) class of a vantage's
// paths — everything calibration and application read of a path that
// carries no TE community.
type bucket struct {
	neighbor asrel.ASN
	locPrf   uint32
}

// Evidence is one vantage's LocPrf evidence in counted form: how many
// eligible paths carried a TE community, and how many of the rest fall
// into each (neighbor, LocPrf) bucket. Paths fold in and out with ±1,
// so a streaming consumer keeps it current per route change, and
// calibrating from it costs the vantage's buckets, not its paths. The
// zero value is empty and ready to use.
type Evidence struct {
	te      int
	buckets map[bucket]int
}

// Fold adds (delta +1) or retracts (delta -1) one eligible path's
// evidence. A bucket whose count reaches zero is deleted, so evidence
// folded in and back out leaves no trace.
func (ev *Evidence) Fold(p *dataset.PathObs, dict *community.Dictionary, delta int) {
	if hasTE(p.Communities, dict) {
		ev.te += delta
		return
	}
	k := bucket{neighbor: p.Path[1], locPrf: p.LocPrf}
	n := ev.buckets[k] + delta
	if n == 0 {
		delete(ev.buckets, k)
		return
	}
	if ev.buckets == nil {
		ev.buckets = make(map[bucket]int)
	}
	ev.buckets[k] = n
}

// Empty reports whether no path's evidence remains.
func (ev *Evidence) Empty() bool { return ev.te == 0 && len(ev.buckets) == 0 }

// Group folds the eligible paths into per-vantage evidence — the
// grouping batch Infer and the live engine's full recompute share.
func Group(paths []*dataset.PathObs, dict *community.Dictionary) map[asrel.ASN]*Evidence {
	out := make(map[asrel.ASN]*Evidence)
	for _, p := range paths {
		if !Eligible(p) {
			continue
		}
		ev := out[p.Vantage]
		if ev == nil {
			ev = &Evidence{}
			out[p.Vantage] = ev
		}
		ev.Fold(p, dict, 1)
	}
	return out
}

// VantageStats tallies one vantage's calibration-and-application pass,
// counting paths (bucket multiplicities), not buckets.
type VantageStats struct {
	Calibrated bool
	FilteredTE int
	Applied    int
	Conflicts  int
}

// Calibrate runs the calibration and application for vantage v over
// its evidence. Buckets whose first hop base already covers calibrate
// the vantage's LocPrf bands; every other bucket whose LocPrf falls in
// a usable band emits one directed vote per path it counts:
// emit(v, neighbor, rel, n) asserts, n times over, the vantage's
// relationship toward its first hop. Vote counts are order-independent,
// which is what lets the live engine recalibrate a single vantage in
// isolation and still match batch Infer exactly. base is read for
// first-hop coverage only.
func Calibrate(v asrel.ASN, ev *Evidence, base *intern.Table, cfg Config, emit func(a, b asrel.ASN, rel asrel.Rel, n int)) VantageStats {
	if cfg.MinSupport < 1 {
		cfg.MinSupport = 2
	}
	st := VantageStats{FilteredTE: ev.te}
	// Calibration: LocPrf value → the single relationship its
	// community-confirmed routes agree on, with their count.
	type band struct {
		rel      asrel.Rel
		n        int
		conflict bool
	}
	calib := make(map[uint32]band)
	for k, n := range ev.buckets {
		rel := base.Get(v, k.neighbor)
		if !rel.Known() {
			continue
		}
		b, seen := calib[k.locPrf]
		switch {
		case !seen:
			b = band{rel: rel, n: n}
		case b.rel != rel:
			b.conflict = true
		default:
			b.n += n
		}
		calib[k.locPrf] = b
	}

	// Keep only unambiguous, well-supported bands.
	for val, b := range calib {
		switch {
		case b.conflict:
			st.Conflicts++
			delete(calib, val)
		case b.n < cfg.MinSupport:
			delete(calib, val)
		}
	}
	if len(calib) == 0 {
		return st
	}
	st.Calibrated = true
	for k, n := range ev.buckets {
		b, ok := calib[k.locPrf]
		if !ok || base.Get(v, k.neighbor).Known() {
			continue
		}
		emit(v, k.neighbor, b.rel, n)
		st.Applied += n
	}
	return st
}

func hasTE(comms []bgp.Community, dict *community.Dictionary) bool {
	for _, c := range comms {
		if m, ok := dict.Lookup(c); ok && m == community.MeaningTE {
			return true
		}
	}
	return false
}
