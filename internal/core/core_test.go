package core

import (
	"reflect"
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/ctree"
	"hybridrel/internal/gen"
	"hybridrel/internal/infer/gao"
	"hybridrel/internal/infer/rank"
	"hybridrel/internal/testutil"
)

func analyzeSmall(t *testing.T) (*testutil.World, *Analysis) {
	t.Helper()
	w, err := testutil.BuildWorld(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w, Analyze(w.D4, w.D6, w.Dict, DefaultOptions())
}

func TestCoverage(t *testing.T) {
	w, a := analyzeSmall(t)
	c := a.Coverage()
	if c.Paths6 != w.D6.NumUniquePaths() || c.Links6 != w.D6.NumLinks() {
		t.Error("coverage counts disagree with the dataset")
	}
	if c.DualStack == 0 || c.DualStack > c.Links6 {
		t.Errorf("dual-stack = %d of %d", c.DualStack, c.Links6)
	}
	if s := c.Share6(); s < 0.40 || s > 0.95 {
		t.Errorf("v6 classified share = %.3f", s)
	}
	// Dual-stack links skew to transit ASes, so their coverage tracks
	// the overall plane coverage closely (the paper's 81% vs 72%); at
	// the small test scale the ordering can flip within noise.
	if d := c.ShareDual() - c.Share6(); d < -0.1 {
		t.Errorf("dual coverage %.3f far below overall %.3f", c.ShareDual(), c.Share6())
	}
	if c.ClassifiedDualBoth > c.ClassifiedDual {
		t.Error("both-planes count exceeds v6-classified count")
	}
	t.Logf("paths=%d links6=%d dual=%d share6=%.2f shareDual=%.2f",
		c.Paths6, c.Links6, c.DualStack, c.Share6(), c.ShareDual())
}

// TestMemoizedProductsMatchRecomputation holds the memoized accessors
// to a from-scratch recomputation: once cached, Hybrids, Coverage and
// the dual-stack join must equal what ComputeProducts derives anew.
func TestMemoizedProductsMatchRecomputation(t *testing.T) {
	_, a := analyzeSmall(t)
	hyb, cov := a.Hybrids(), a.Coverage()
	dual, freshHyb, freshCov := a.ComputeProducts()
	if len(dual) == 0 || len(freshHyb) == 0 {
		t.Fatal("small world has no dual-stack hybrids; the comparison would be vacuous")
	}
	if !reflect.DeepEqual(a.dualStack(), dual) {
		t.Errorf("memoized dual-stack join (%d links) differs from recomputation (%d)", len(a.dualStack()), len(dual))
	}
	if !reflect.DeepEqual(hyb, freshHyb) {
		t.Errorf("memoized hybrid list (%d) differs from recomputation (%d)", len(hyb), len(freshHyb))
	}
	if cov != freshCov {
		t.Errorf("memoized coverage differs from recomputation:\nmemo  %+v\nfresh %+v", cov, freshCov)
	}
}

func TestHybridDetectionMatchesPlanted(t *testing.T) {
	w, a := analyzeSmall(t)
	planted := make(map[asrel.LinkKey]asrel.HybridClass, len(w.In.Hybrids))
	for _, h := range w.In.Hybrids {
		planted[h.Key] = h.Class
	}
	hybrids := a.Hybrids()
	if len(hybrids) == 0 {
		t.Fatal("no hybrids detected")
	}
	false1 := 0
	for _, h := range hybrids {
		cls, ok := planted[h.Key]
		if !ok {
			false1++
			continue
		}
		if h.Class != cls {
			t.Errorf("hybrid %s class = %s, planted %s", h.Key, h.Class, cls)
		}
		truth4, truth6 := w.In.Truth4.GetKey(h.Key), w.In.Truth6.GetKey(h.Key)
		if h.V4 != truth4 || h.V6 != truth6 {
			t.Errorf("hybrid %s rels = %s/%s, truth %s/%s", h.Key, h.V4, h.V6, truth4, truth6)
		}
	}
	if float64(false1) > 0.05*float64(len(hybrids)) {
		t.Errorf("%d of %d detected hybrids are false positives", false1, len(hybrids))
	}
	// Recall: the pipeline should recover a substantial share of the
	// planted hybrids (coverage limits the rest).
	if len(hybrids)-false1 < len(planted)/3 {
		t.Errorf("recovered %d of %d planted hybrids", len(hybrids)-false1, len(planted))
	}
	// Visibility ordering must be descending.
	for i := 1; i < len(hybrids); i++ {
		if hybrids[i-1].Visibility < hybrids[i].Visibility {
			t.Fatal("hybrids not sorted by visibility")
		}
	}
	t.Logf("detected %d hybrids (%d false) of %d planted", len(hybrids), false1, len(planted))
}

func TestHybridCensusShares(t *testing.T) {
	_, a := analyzeSmall(t)
	census := a.HybridCensus()
	if census.Hybrid == 0 || census.DualClassified == 0 {
		t.Fatal("empty census")
	}
	share := census.HybridShare()
	if share < 0.05 || share > 0.25 {
		t.Errorf("hybrid share = %.3f, want near 0.13", share)
	}
	h1 := census.ClassShare(asrel.HybridPeerTransit)
	if h1 < 0.4 || h1 > 0.9 {
		t.Errorf("H1 share = %.3f, want near 0.67", h1)
	}
	if census.ByClass[asrel.HybridReversed] > 1 {
		t.Errorf("H3 count = %d, want ≤ 1", census.ByClass[asrel.HybridReversed])
	}
	t.Logf("census: %d/%d hybrid (%.1f%%), H1 %.1f%% H2 %.1f%%",
		census.Hybrid, census.DualClassified, 100*share,
		100*h1, 100*census.ClassShare(asrel.HybridTransitPeer))
}

func TestHybridVisibility(t *testing.T) {
	_, a := analyzeSmall(t)
	v := a.HybridVisibility()
	if v.Paths == 0 {
		t.Fatal("no paths")
	}
	if v.Share() <= 0.05 {
		t.Errorf("hybrid path share = %.3f, expected substantial visibility", v.Share())
	}
	// Hybrids concentrate on high-degree (tier-1/tier-2) ASes.
	if v.MeanHybridEndpointDegree <= v.MeanDualEndpointDegree {
		t.Errorf("hybrid endpoint degree %.1f not above dual average %.1f",
			v.MeanHybridEndpointDegree, v.MeanDualEndpointDegree)
	}
	t.Logf("visibility: %.1f%% of paths, hybrid endpoint degree %.1f vs %.1f",
		100*v.Share(), v.MeanHybridEndpointDegree, v.MeanDualEndpointDegree)
}

func TestValleyReport(t *testing.T) {
	_, a := analyzeSmall(t)
	st := a.ValleyReport()
	if st.Total == 0 || st.Valley == 0 {
		t.Fatalf("degenerate valley stats: %+v", st)
	}
	share := st.ValleyShare()
	if share < 0.01 || share > 0.40 {
		t.Errorf("valley share = %.3f, want a substantial minority", share)
	}
	if st.Necessary == 0 {
		t.Error("no necessary valley paths despite the dispute")
	}
	if st.Necessary > st.Valley {
		t.Error("necessary exceeds valley count")
	}
	t.Logf("valley: %.1f%% of classified paths, %.1f%% necessary",
		100*share, 100*st.NecessaryShare())
}

func TestFigure2Sweep(t *testing.T) {
	w, a := analyzeSmall(t)
	rank6 := rank.Infer(a.D6.Paths(), rank.DefaultConfig())
	// The paper's baseline: the single-plane ([4]-style) annotation —
	// dual-stack links inherit their IPv4 relationship, v6-only links a
	// degree heuristic. Every hybrid is mis-annotated by construction.
	baseline := a.BaselineV6(a.Rel4, rank6.Table)
	pts := a.Figure2(baseline, 20, 0)
	if len(pts) < 2 {
		t.Fatalf("sweep produced %d points", len(pts))
	}
	first, last := pts[0].Metric, pts[len(pts)-1].Metric
	// Corrections reshape the trees two ways: H1 fixes graft real
	// customer trees onto the free-transit hub (pairs up), H2 fixes
	// prune mis-attributed branches (pairs down). The net must be a
	// change, and the average must not grow.
	if last.Pairs == first.Pairs {
		t.Errorf("corrections left the tree pairs untouched: %d", first.Pairs)
	}
	if last.Avg > first.Avg+0.02 {
		t.Errorf("avg valley-free path grew: %.3f → %.3f", first.Avg, last.Avg)
	}
	// The metric must converge toward the fully corrected annotation:
	// applying every hybrid correction lands near the metric of the
	// recovered (communities-derived) relationships.
	// Full convergence is approximate: the baseline also annotates dual
	// links the recovered table leaves unknown (via their v4 value) and
	// uses a heuristic for v6-only links, so a residual offset remains.
	full := a.Figure2(baseline, len(a.Hybrids()), 0)
	corrected := full[len(full)-1].Metric
	recovered := ctree.MeasureTrees(w.D6.Graph(), a.Rel6, 0)
	if diff := corrected.Avg - recovered.Avg; diff > 0.5 || diff < -0.5 {
		t.Errorf("full sweep avg %.3f drifted far from recovered-annotation avg %.3f",
			corrected.Avg, recovered.Avg)
	}
	// The distortion must be material: the baseline metric differs from
	// the corrected one (the paper's core claim that mis-inferred
	// hybrids bias customer-tree measurements).
	if first.Pairs == corrected.Pairs && first.Avg == corrected.Avg && first.Diameter == corrected.Diameter {
		t.Error("hybrid misinference left the customer-tree metric unchanged")
	}
	t.Logf("figure2: avg %.2f→%.2f (full %.2f), diameter %d→%d, pairs %d→%d over %d corrections",
		first.Avg, last.Avg, corrected.Avg, first.Diameter, last.Diameter,
		first.Pairs, last.Pairs, len(pts)-1)
}

func TestFigure2ClampsNegativeTopN(t *testing.T) {
	_, a := analyzeSmall(t)
	baseline := a.BaselineV6(a.Rel4, a.Rel6)
	for _, topN := range []int{-1, 0} {
		if pts := a.Figure2(baseline, topN, 0); len(pts) != 1 || pts[0].Corrected != 0 {
			t.Errorf("Figure2(topN=%d) = %d points, want only the uncorrected baseline", topN, len(pts))
		}
	}
}

func TestBaselineV6Construction(t *testing.T) {
	w, a := analyzeSmall(t)
	gao4 := gao.Infer(a.D4.Paths(), gao.DefaultConfig())
	gao6 := gao.Infer(a.D6.Paths(), gao.DefaultConfig())
	baseline := a.BaselineV6(gao4.Table, gao6.Table)
	dual := make(map[asrel.LinkKey]bool)
	for _, k := range w.In.DualStackLinks() {
		dual[k] = true
	}
	checked := 0
	baseline.Links(func(k asrel.LinkKey, r asrel.Rel) {
		checked++
		if a.D4.HasLink(k) {
			if want := gao4.Table.GetKey(k); want != r {
				t.Errorf("dual link %s: baseline %s, v4 inference %s", k, r, want)
			}
		} else if want := gao6.Table.GetKey(k); want != r {
			t.Errorf("v6-only link %s: baseline %s, v6 inference %s", k, r, want)
		}
	})
	if checked == 0 {
		t.Fatal("empty baseline")
	}
	_ = dual
}

func TestRunFromRawInputs(t *testing.T) {
	// Exercise the byte-level entry point via the public facade's world
	// in miniature: reuse testutil's buffers through core.Run.
	w, err := testutil.BuildWorld(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through Analyze only (Run is covered by the facade
	// test); verify the analysis is reproducible.
	a1 := Analyze(w.D4, w.D6, w.Dict, DefaultOptions())
	a2 := Analyze(w.D4, w.D6, w.Dict, DefaultOptions())
	h1, h2 := a1.Hybrids(), a2.Hybrids()
	if len(h1) != len(h2) {
		t.Fatal("analysis not reproducible")
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatal("hybrid lists differ between identical analyses")
		}
	}
}
