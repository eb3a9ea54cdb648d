package locpref

import (
	"slices"
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
	"hybridrel/internal/community"
	"hybridrel/internal/dataset"
	"hybridrel/internal/gen"
	communityinfer "hybridrel/internal/infer/communities"
	"hybridrel/internal/intern"
	"hybridrel/internal/testutil"
)

func obsLP(path []asrel.ASN, lp uint32, comms ...bgp.Community) *dataset.PathObs {
	return &dataset.PathObs{Vantage: path[0], Path: path, LocPrf: lp, HasLocPrf: true, Communities: comms}
}

func TestCalibrateAndApply(t *testing.T) {
	// Vantage 10: the communities table anchors neighbors 20 (customer,
	// LocPrf 300) and 30 (peer, LocPrf 200). Neighbor 40 is uncovered
	// and arrives with LocPrf 300 → customer.
	base := asrel.NewTable()
	base.Set(10, 20, asrel.P2C)
	base.Set(10, 30, asrel.P2P)
	paths := []*dataset.PathObs{
		obsLP([]asrel.ASN{10, 20, 99}, 300),
		obsLP([]asrel.ASN{10, 30, 98}, 200),
		obsLP([]asrel.ASN{10, 40, 97}, 300),
	}
	res := Infer(slices.Values(paths), community.NewDictionary(), intern.FromTable(base), Config{MinSupport: 1})
	if res.CalibratedVantages != 1 {
		t.Errorf("CalibratedVantages = %d", res.CalibratedVantages)
	}
	if got := res.Table.Get(10, 40); got != asrel.P2C {
		t.Errorf("rel(10,40) = %s, want p2c via the 300 band", got)
	}
	if res.Applied != 1 {
		t.Errorf("Applied = %d", res.Applied)
	}
}

func TestTEFiltering(t *testing.T) {
	dict := community.NewDictionary()
	te := bgp.MakeCommunity(10, 9000)
	dict.Set(te, community.MeaningTE)

	base := asrel.NewTable()
	base.Set(10, 20, asrel.P2C)
	paths := []*dataset.PathObs{
		obsLP([]asrel.ASN{10, 20, 99}, 300),
		// TE route with a misleading LocPrf on an uncovered link: must
		// not be classified.
		obsLP([]asrel.ASN{10, 40, 97}, 300, te),
	}
	res := Infer(slices.Values(paths), dict, intern.FromTable(base), Config{MinSupport: 1})
	if res.FilteredTE != 1 {
		t.Errorf("FilteredTE = %d", res.FilteredTE)
	}
	if res.Table.Has(10, 40) {
		t.Error("TE route classified a link")
	}
}

func TestAmbiguousBandDropped(t *testing.T) {
	// LocPrf 250 maps to both customer and peer at this vantage: the
	// band is unusable.
	base := asrel.NewTable()
	base.Set(10, 20, asrel.P2C)
	base.Set(10, 30, asrel.P2P)
	paths := []*dataset.PathObs{
		obsLP([]asrel.ASN{10, 20, 99}, 250),
		obsLP([]asrel.ASN{10, 30, 98}, 250),
		obsLP([]asrel.ASN{10, 40, 97}, 250),
	}
	res := Infer(slices.Values(paths), community.NewDictionary(), intern.FromTable(base), Config{MinSupport: 1})
	if res.Conflicts != 1 {
		t.Errorf("Conflicts = %d", res.Conflicts)
	}
	if res.Table.Has(10, 40) {
		t.Error("link classified from an ambiguous band")
	}
}

func TestNoLocPrfNoInference(t *testing.T) {
	base := asrel.NewTable()
	base.Set(10, 20, asrel.P2C)
	paths := []*dataset.PathObs{
		{Vantage: 10, Path: []asrel.ASN{10, 20, 99}, LocPrf: 300}, // HasLocPrf false
	}
	res := Infer(slices.Values(paths), community.NewDictionary(), intern.FromTable(base), Config{MinSupport: 1})
	if res.CalibratedVantages != 0 || res.Table.Len() != 0 {
		t.Error("inference ran without LocPrf feeds")
	}
}

func TestPerVantageIsolation(t *testing.T) {
	// Vantage 10 uses 300=customer; vantage 11 uses 300=peer. Each must
	// calibrate independently.
	base := asrel.NewTable()
	base.Set(10, 20, asrel.P2C)
	base.Set(11, 21, asrel.P2P)
	paths := []*dataset.PathObs{
		obsLP([]asrel.ASN{10, 20, 99}, 300),
		obsLP([]asrel.ASN{10, 40, 97}, 300),
		obsLP([]asrel.ASN{11, 21, 99}, 300),
		obsLP([]asrel.ASN{11, 41, 97}, 300),
	}
	res := Infer(slices.Values(paths), community.NewDictionary(), intern.FromTable(base), Config{MinSupport: 1})
	if got := res.Table.Get(10, 40); got != asrel.P2C {
		t.Errorf("vantage 10 band: rel(10,40) = %s", got)
	}
	if got := res.Table.Get(11, 41); got != asrel.P2P {
		t.Errorf("vantage 11 band: rel(11,41) = %s", got)
	}
}

// TestExtendsCoverageCorrectly runs the full Rosetta-stone flow on the
// synthetic world: LocPrf inference must add links beyond the
// communities table, and at the default support threshold the
// overwhelming majority of them must be correct. Perfect accuracy is
// not attainable: the world contains undocumented TE communities whose
// LocPrf overrides are invisible to the filter, exactly the residual
// error source the paper's methodology tolerates.
func TestExtendsCoverageCorrectly(t *testing.T) {
	// Depress community adoption and widen the LocPrf feeds so the
	// Rosetta-stone step has real work: the communities table then
	// leaves many vantage-adjacent links uncovered.
	cfg := gen.SmallConfig()
	cfg.CommunityAdoptTransit = 0.55
	cfg.CommunityAdoptStub = 0.15
	cfg.NumVantages = 48
	cfg.VantageLocPrfFrac = 0.85
	w, err := testutil.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	paths := w.D6.Paths()
	base := communityinfer.Infer(paths, w.Dict)
	res := Infer(paths, w.Dict, base.Table, DefaultConfig())
	if res.CalibratedVantages == 0 {
		t.Fatal("no vantage calibrated")
	}
	added, wrong := 0, 0
	res.Table.Each(func(k asrel.LinkKey, r asrel.Rel) {
		if base.Table.GetKey(k).Known() {
			t.Errorf("locpref re-inferred covered link %s", k)
		}
		added++
		if want := w.In.Truth6.GetKey(k); want != r {
			wrong++
		}
	})
	if added == 0 {
		t.Fatal("locpref added no links")
	}
	if float64(wrong) > 0.1*float64(added) {
		t.Errorf("locpref misinferred %d of %d added links", wrong, added)
	}
	t.Logf("locpref added %d links (%d wrong) over %d community links (filtered %d TE routes)",
		added, wrong, base.Table.Len(), res.FilteredTE)
	if res.FilteredTE == 0 {
		t.Error("no TE routes filtered; TE noise missing from the world")
	}
}

func TestEvidenceFoldRoundTrip(t *testing.T) {
	dict := community.NewDictionary()
	te := bgp.MakeCommunity(10, 9000)
	dict.Set(te, community.MeaningTE)
	paths := []*dataset.PathObs{
		obsLP([]asrel.ASN{10, 20, 99}, 300),
		obsLP([]asrel.ASN{10, 20, 98}, 300),
		obsLP([]asrel.ASN{10, 30, 97}, 200),
		obsLP([]asrel.ASN{10, 40, 96}, 300, te),
	}
	var ev Evidence
	for _, p := range paths {
		ev.Fold(p, dict, 1)
	}
	if ev.te != 1 || len(ev.buckets) != 2 || ev.buckets[bucket{20, 300}] != 2 {
		t.Fatalf("folded evidence = %+v", ev)
	}
	for _, p := range paths[:2] {
		ev.Fold(p, dict, -1)
	}
	if _, ok := ev.buckets[bucket{20, 300}]; ok || ev.Empty() {
		t.Fatalf("after retracting one bucket's paths: %+v", ev)
	}
	for _, p := range paths[2:] {
		ev.Fold(p, dict, -1)
	}
	if !ev.Empty() || len(ev.buckets) != 0 {
		t.Fatalf("evidence folded in and out is not empty: %+v", ev)
	}
}

func TestTEPathsCountOnlyAsFiltered(t *testing.T) {
	dict := community.NewDictionary()
	te := bgp.MakeCommunity(10, 9000)
	dict.Set(te, community.MeaningTE)
	base := asrel.NewTable()
	base.Set(10, 20, asrel.P2C)
	// Every path is TE-tagged: two would-be anchors and one uncovered
	// link. None may calibrate or apply.
	paths := []*dataset.PathObs{
		obsLP([]asrel.ASN{10, 20, 99}, 300, te),
		obsLP([]asrel.ASN{10, 20, 98}, 300, te),
		obsLP([]asrel.ASN{10, 40, 97}, 300, te),
	}
	ev := Group(slices.Values(paths), dict)[10]
	if ev == nil || ev.te != 3 || len(ev.buckets) != 0 {
		t.Fatalf("TE paths reached the buckets: %+v", ev)
	}
	emitted := 0
	st := Calibrate(10, ev, intern.FromTable(base), Config{MinSupport: 1}, func(asrel.ASN, asrel.ASN, asrel.Rel, int) { emitted++ })
	if st.FilteredTE != 3 || st.Calibrated || st.Applied != 0 || emitted != 0 {
		t.Errorf("stats = %+v, %d emissions", st, emitted)
	}
}

func TestBandSupportedByMultiplicity(t *testing.T) {
	// Two routes through the same anchored neighbor with the same
	// LocPrf share one bucket of count 2: that alone must reach
	// MinSupport 2, and the uncovered bucket applies with its count.
	base := asrel.NewTable()
	base.Set(10, 20, asrel.P2C)
	paths := []*dataset.PathObs{
		obsLP([]asrel.ASN{10, 20, 99}, 300),
		obsLP([]asrel.ASN{10, 20, 98}, 300),
		obsLP([]asrel.ASN{10, 40, 97}, 300),
		obsLP([]asrel.ASN{10, 40, 96}, 300),
	}
	ev := Group(slices.Values(paths), community.NewDictionary())[10]
	var got []int
	st := Calibrate(10, ev, intern.FromTable(base), DefaultConfig(), func(a, b asrel.ASN, rel asrel.Rel, n int) {
		if a != 10 || b != 40 || rel != asrel.P2C {
			t.Errorf("emit(%s, %s, %s, %d)", a, b, rel, n)
		}
		got = append(got, n)
	})
	if !st.Calibrated || st.Applied != 2 || len(got) != 1 || got[0] != 2 {
		t.Errorf("stats = %+v, emissions %v; want one emission of 2", st, got)
	}
	res := Infer(slices.Values(paths), community.NewDictionary(), intern.FromTable(base), DefaultConfig())
	if res.CalibratedVantages != 1 || res.Applied != 2 || res.Table.Get(10, 40) != asrel.P2C {
		t.Errorf("Infer = %+v", res)
	}
}
