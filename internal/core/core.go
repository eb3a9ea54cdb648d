// Package core assembles the paper's methodology end to end: ingest MRT
// archives for both address families and an IRR dump, mine the BGP
// Communities for relationship tags, extend coverage with the
// LocPrf "Rosetta stone", join the planes into the dual-stack link set,
// detect hybrid IPv4/IPv6 relationships, classify the IPv6 paths against
// the valley-free rule, and regenerate the customer-tree correction
// sweep of Figure 2.
package core

import (
	"context"
	"io"
	"sort"
	"sync"

	"hybridrel/internal/asrel"
	"hybridrel/internal/community"
	"hybridrel/internal/ctree"
	"hybridrel/internal/dataset"
	communityinfer "hybridrel/internal/infer/communities"
	"hybridrel/internal/infer/locpref"
	"hybridrel/internal/intern"
	"hybridrel/internal/pipeline"
	"hybridrel/internal/stats"
	"hybridrel/internal/topology"
	"hybridrel/internal/valley"
)

// Options configures the pipeline.
type Options struct {
	// LocPref tunes the LocPrf calibration step.
	LocPref locpref.Config
}

// DefaultOptions returns the paper-faithful configuration.
func DefaultOptions() Options {
	return Options{LocPref: locpref.DefaultConfig()}
}

// Inputs are the v1 raw measurement inputs: any number of MRT
// TABLE_DUMP_V2 archives per plane plus an IRR database, as bare
// one-shot readers. New code should build pipeline.Sources directly.
type Inputs struct {
	MRT4 []io.Reader
	MRT6 []io.Reader
	IRR  io.Reader
}

// Sources adapts the v1 reader slices into v2 pipeline sources.
func (in Inputs) Sources() pipeline.Sources {
	s := pipeline.Sources{
		MRT4: pipeline.Readers("ipv4", in.MRT4),
		MRT6: pipeline.Readers("ipv6", in.MRT6),
	}
	if in.IRR != nil {
		s.IRR = pipeline.Reader("irr", in.IRR)
	}
	return s
}

// Analysis is the assembled result of the methodology. Its derived
// products — the dual-stack join, the hybrid list, coverage, census,
// visibility, and the valley report — are computed once on first use
// and cached; accessors are safe for concurrent use.
type Analysis struct {
	D4, D6 *dataset.Dataset
	Dict   *community.Dictionary

	// Comm4/Comm6 and Loc4/Loc6 are the per-plane inference results.
	Comm4, Comm6 *communityinfer.Result
	Loc4, Loc6   *locpref.Result

	// Rel4 / Rel6 are the merged relationship tables, one per plane:
	// communities first, LocPrf filling the links they leave
	// unclassified. Every derived-product sweep and the snapshot codec
	// read them; they are immutable.
	Rel4, Rel6 *intern.Table

	graph6 *topology.Graph

	// memo caches the derived products behind once-guards.
	memo struct {
		dualOnce   sync.Once
		dual       []asrel.LinkKey
		hybOnce    sync.Once
		hybrids    []HybridLink
		covOnce    sync.Once
		coverage   Coverage
		censusOnce sync.Once
		census     HybridCensus
		visOnce    sync.Once
		visibility Visibility
		valOnce    sync.Once
		valley     valley.Stats
	}
}

// Run executes the full pipeline from raw inputs. It is the v1
// compatibility entry point: a thin wrapper that adapts the reader
// slices into sources and defers to RunPipeline with a background
// context and default concurrency. Results are identical to the
// sequential seed implementation.
func Run(in Inputs, opt Options) (*Analysis, error) {
	return RunPipeline(context.Background(), in.Sources(), pipeline.WithLocPref(opt.LocPref))
}

// RunPipeline executes the staged v2 pipeline — concurrent ingest,
// parallel per-plane inference — and assembles the memoized Analysis.
func RunPipeline(ctx context.Context, in pipeline.Sources, opts ...pipeline.Option) (*Analysis, error) {
	p := pipeline.New(opts...)
	res, err := p.Run(ctx, in)
	if err != nil {
		return nil, err
	}
	a := FromResult(res)
	if fn := p.Config().Progress; fn != nil {
		fn(pipeline.StageAnalyze, pipeline.Event{Item: "analysis", Done: 1, Total: 1})
	}
	return a, nil
}

// FromResult assembles an Analysis from the pipeline's products.
func FromResult(res *pipeline.Result) *Analysis {
	return Assemble(res.D4, res.D6, res.Dict, res.Comm4, res.Comm6, res.Loc4, res.Loc6)
}

// Assemble builds an Analysis from per-plane inference results. It is
// the one constructor: the batch entry points call it, and so does the
// live incremental path, which maintains the four per-plane tables
// itself and snapshots them on a cadence — so a snapshot captured from
// a live Analysis is byte-identical to the batch one whenever the
// tables and datasets agree.
func Assemble(d4, d6 *dataset.Dataset, dict *community.Dictionary,
	comm4, comm6 *communityinfer.Result, loc4, loc6 *locpref.Result) *Analysis {
	return &Analysis{
		D4: d4, D6: d6, Dict: dict,
		Comm4: comm4, Comm6: comm6,
		Loc4: loc4, Loc6: loc6,
		Rel4:   intern.Merge(comm4.Table, loc4.Table),
		Rel6:   intern.Merge(comm6.Table, loc6.Table),
		graph6: d6.Graph(),
	}
}

// Analyze runs the inference stack over already-ingested datasets.
func Analyze(d4, d6 *dataset.Dataset, dict *community.Dictionary, opt Options) *Analysis {
	paths4, paths6 := d4.Paths(), d6.Paths()
	comm4 := communityinfer.Infer(paths4, dict)
	comm6 := communityinfer.Infer(paths6, dict)
	loc4 := locpref.Infer(paths4, dict, comm4.Table, opt.LocPref)
	loc6 := locpref.Infer(paths6, dict, comm6.Table, opt.LocPref)
	return Assemble(d4, d6, dict, comm4, comm6, loc4, loc6)
}

// dualStack memoizes the dual-stack join of the two planes.
func (a *Analysis) dualStack() []asrel.LinkKey {
	a.memo.dualOnce.Do(func() {
		a.memo.dual = dataset.DualStack(a.D4, a.D6)
	})
	return a.memo.dual
}

// Coverage is the dataset-summary table (§3 ¶1 of the paper).
type Coverage struct {
	Paths6      int // unique IPv6 AS paths
	Links6      int // IPv6 AS links
	Links4      int // IPv4 AS links
	DualStack   int // links visible in both planes
	Classified6 int // IPv6 links with a recovered relationship
	// ClassifiedDual counts dual-stack links classified in the IPv6
	// plane; ClassifiedDualBoth requires both planes (the hybrid
	// detection population).
	ClassifiedDual     int
	ClassifiedDualBoth int
}

// Share6 returns Classified6/Links6 (the paper's 72%).
func (c Coverage) Share6() float64 { return stats.Ratio(c.Classified6, c.Links6) }

// ShareDual returns ClassifiedDual/DualStack (the paper's 81%).
func (c Coverage) ShareDual() float64 { return stats.Ratio(c.ClassifiedDual, c.DualStack) }

// computeCoverage builds the dataset summary: one sweep over the
// dual-stack join against both relationship tables, one sweep over the
// IPv6 link index against the IPv6 table. No hash probes anywhere.
func (a *Analysis) computeCoverage(dual []asrel.LinkKey) Coverage {
	c := Coverage{
		Paths6: a.D6.NumUniquePaths(),
		Links6: a.D6.NumLinks(),
		Links4: a.D4.NumLinks(),
	}
	intern.Sweep(dual, a.Rel4, a.Rel6, func(_ asrel.LinkKey, r4, r6 asrel.Rel) {
		c.DualStack++
		if r6.Known() {
			c.ClassifiedDual++
			if r4.Known() {
				c.ClassifiedDualBoth++
			}
		}
	})
	intern.SweepCounts(a.D6.Flat(), a.Rel6, func(_ asrel.LinkKey, _ int, r asrel.Rel) {
		if r.Known() {
			c.Classified6++
		}
	})
	return c
}

// Coverage computes the dataset summary (cached after the first call).
func (a *Analysis) Coverage() Coverage {
	a.memo.covOnce.Do(func() {
		a.memo.coverage = a.computeCoverage(a.dualStack())
	})
	return a.memo.coverage
}

// HybridLink is one detected hybrid relationship.
type HybridLink struct {
	Key   asrel.LinkKey
	V4    asrel.Rel // Lo→Hi oriented
	V6    asrel.Rel
	Class asrel.HybridClass
	// Visibility is the number of unique IPv6 paths traversing the link
	// (the paper's ordering criterion for Figure 2).
	Visibility int
}

// computeHybrids runs the detection pass over the dual-stack join as
// one sweep against both relationship tables; only the (sparse) hybrid
// hits pay a per-link visibility lookup.
func (a *Analysis) computeHybrids(dual []asrel.LinkKey) []HybridLink {
	var out []HybridLink
	intern.Sweep(dual, a.Rel4, a.Rel6, func(k asrel.LinkKey, v4, v6 asrel.Rel) {
		cls := asrel.Classify(v4, v6)
		if cls == asrel.NotHybrid {
			return
		}
		out = append(out, HybridLink{
			Key: k, V4: v4, V6: v6, Class: cls,
			Visibility: a.D6.LinkVisibility(k),
		})
	})
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Visibility != out[j].Visibility {
			return out[i].Visibility > out[j].Visibility
		}
		if out[i].Key.Lo != out[j].Key.Lo {
			return out[i].Key.Lo < out[j].Key.Lo
		}
		return out[i].Key.Hi < out[j].Key.Hi
	})
	return out
}

// hybridList memoizes the detection pass; callers must not mutate the
// returned slice.
func (a *Analysis) hybridList() []HybridLink {
	a.memo.hybOnce.Do(func() {
		a.memo.hybrids = a.computeHybrids(a.dualStack())
	})
	return a.memo.hybrids
}

// ComputeProducts recomputes the dual-stack join, the hybrid list, and
// the coverage summary from scratch, bypassing the memo cache. It
// exists for the benchmark suite and the memo-consistency test; normal
// callers use the memoized accessors.
func (a *Analysis) ComputeProducts() (dual []asrel.LinkKey, hybrids []HybridLink, cov Coverage) {
	dual = dataset.DualStack(a.D4, a.D6)
	return dual, a.computeHybrids(dual), a.computeCoverage(dual)
}

// Hybrids detects every dual-stack link whose recovered relationships
// differ between the planes, ordered by descending IPv6 path visibility.
// The detection runs once; each call returns a fresh copy of the list.
func (a *Analysis) Hybrids() []HybridLink {
	return append([]HybridLink(nil), a.hybridList()...)
}

// HybridCensus is the §3 ¶2 table: how many classified dual-stack links
// are hybrid, split by class.
type HybridCensus struct {
	DualClassified int // dual-stack links classified in both planes
	Hybrid         int
	ByClass        map[asrel.HybridClass]int
}

// HybridShare returns Hybrid/DualClassified (the paper's 13%).
func (h HybridCensus) HybridShare() float64 { return stats.Ratio(h.Hybrid, h.DualClassified) }

// ClassShare returns the share of hybrids in the given class (the
// paper's 67% for H1).
func (h HybridCensus) ClassShare(c asrel.HybridClass) float64 {
	return stats.Ratio(h.ByClass[c], h.Hybrid)
}

// HybridCensus tallies the hybrid population (cached after the first
// call; the returned ByClass map is a copy the caller may keep).
func (a *Analysis) HybridCensus() HybridCensus {
	a.memo.censusOnce.Do(func() {
		census := HybridCensus{ByClass: make(map[asrel.HybridClass]int)}
		census.DualClassified = a.Coverage().ClassifiedDualBoth
		for _, h := range a.hybridList() {
			census.Hybrid++
			census.ByClass[h.Class]++
		}
		a.memo.census = census
	})
	out := a.memo.census
	out.ByClass = make(map[asrel.HybridClass]int, len(a.memo.census.ByClass))
	for k, v := range a.memo.census.ByClass {
		out.ByClass[k] = v
	}
	return out
}

// Visibility is the §3 ¶3 result: how present hybrid links are in the
// IPv6 paths and how their endpoints compare to the average link.
type Visibility struct {
	Paths           int
	PathsWithHybrid int
	// MeanEndpointDegree compares hybrid links' endpoint degree (in the
	// observed IPv6 graph) against all dual-stack links'.
	MeanHybridEndpointDegree float64
	MeanDualEndpointDegree   float64
}

// Share returns PathsWithHybrid/Paths (the paper's >28%).
func (v Visibility) Share() float64 { return stats.Ratio(v.PathsWithHybrid, v.Paths) }

// HybridVisibility scans every IPv6 path for hybrid links (cached
// after the first call).
func (a *Analysis) HybridVisibility() Visibility {
	a.memo.visOnce.Do(func() {
		hybrids := make(map[asrel.LinkKey]bool)
		var hybDegrees []int
		for _, h := range a.hybridList() {
			hybrids[h.Key] = true
			hybDegrees = append(hybDegrees,
				a.graph6.Degree(h.Key.Lo), a.graph6.Degree(h.Key.Hi))
		}
		var dualDegrees []int
		for _, k := range a.dualStack() {
			dualDegrees = append(dualDegrees,
				a.graph6.Degree(k.Lo), a.graph6.Degree(k.Hi))
		}
		v := Visibility{
			MeanHybridEndpointDegree: stats.MeanInt(hybDegrees),
			MeanDualEndpointDegree:   stats.MeanInt(dualDegrees),
		}
		for p := range a.D6.Paths() {
			v.Paths++
			for i := 0; i+1 < len(p.Path); i++ {
				if hybrids[asrel.Key(p.Path[i], p.Path[i+1])] {
					v.PathsWithHybrid++
					break
				}
			}
		}
		a.memo.visibility = v
	})
	return a.memo.visibility
}

// ValleyReport classifies every IPv6 path against the valley-free rule
// under the recovered relationships and assesses which valley paths are
// necessary for reachability (§3 ¶4). Cached after the first call.
func (a *Analysis) ValleyReport() valley.Stats {
	a.memo.valOnce.Do(func() {
		_, st := valley.Assess(a.D6.Paths(), a.Rel6, a.graph6)
		a.memo.valley = st
	})
	return a.memo.valley
}

// BaselineV6 builds the single-plane baseline annotation that Figure 2
// starts from — the [4]-style dataset: dual-stack links inherit the
// IPv4-plane inference (hybrids are necessarily wrong), IPv6-only links
// take the IPv6-plane inference. The result is mutable: it is the
// starting point the Figure-2 sweep corrects one link at a time.
func (a *Analysis) BaselineV6(infer4, infer6 *intern.Table) *asrel.Table {
	out := asrel.NewTable()
	for _, k := range a.D6.Links() {
		if a.D4.HasLink(k) {
			if r := infer4.GetKey(k); r.Known() {
				out.SetKey(k, r)
			}
			continue
		}
		if r := infer6.GetKey(k); r.Known() {
			out.SetKey(k, r)
		}
	}
	return out
}

// Figure2 reproduces the paper's Figure 2: starting from the baseline
// annotation, the topN most visible hybrid links are corrected one at a
// time to their communities-derived IPv6 relationship, measuring the
// union-of-customer-trees metric after every correction. maxSources
// bounds the valley-free sampling (0 = exact). topN is clamped to
// [0, number of hybrids].
func (a *Analysis) Figure2(baseline *asrel.Table, topN, maxSources int) []ctree.SweepPoint {
	hybrids := a.Hybrids()
	topN = min(max(topN, 0), len(hybrids))
	corrections := make([]ctree.Correction, 0, topN)
	for _, h := range hybrids[:topN] {
		corrections = append(corrections, ctree.Correction{
			Key: h.Key, Rel: h.V6, Visibility: h.Visibility,
		})
	}
	return ctree.Sweep(a.graph6, baseline, corrections, maxSources)
}
