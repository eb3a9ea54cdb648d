package gao

import (
	"slices"
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/dataset"
	"hybridrel/internal/gen"
	"hybridrel/internal/infer"
	"hybridrel/internal/testutil"
)

func p(asns ...asrel.ASN) *dataset.PathObs {
	return &dataset.PathObs{Vantage: asns[0], Path: asns}
}

// starPaths builds a hub-and-spoke world: AS1 is the high-degree top,
// spokes 10..N are stubs behind it, and vantages observe through 1.
func starPaths() []*dataset.PathObs {
	var paths []*dataset.PathObs
	// Vantage 10 sees every other spoke via the hub.
	for spoke := asrel.ASN(11); spoke <= 18; spoke++ {
		paths = append(paths, p(10, 1, spoke))
	}
	return paths
}

func TestInferStarTopology(t *testing.T) {
	res := Infer(slices.Values(starPaths()), DefaultConfig())
	// Origin-side edges (1, spoke): 1 provider of spoke.
	for spoke := asrel.ASN(11); spoke <= 18; spoke++ {
		if got := res.Table.Get(1, spoke); got != asrel.P2C {
			t.Errorf("rel(1,%d) = %s, want p2c", spoke, got)
		}
	}
	// Vantage-side edge (10, 1): 10 is customer — but it is top-adjacent
	// with a huge degree gap, so the peering pass must not fire.
	if got := res.Table.Get(10, 1); got != asrel.C2P {
		t.Errorf("rel(10,1) = %s, want c2p", got)
	}
}

func TestPeeringPassFires(t *testing.T) {
	// Two similar-degree transit ASes 1 and 2 exchanging their customer
	// cones: the 1-2 link is always top-adjacent and balanced.
	paths := []*dataset.PathObs{
		p(10, 1, 2, 20),
		p(11, 1, 2, 21),
		p(20, 2, 1, 10),
		p(21, 2, 1, 11),
	}
	res := Infer(slices.Values(paths), DefaultConfig())
	if got := res.Table.Get(1, 2); got != asrel.P2P {
		t.Errorf("rel(1,2) = %s, want p2p from the peering pass", got)
	}
	if res.Peerings == 0 {
		t.Error("no peerings counted")
	}
}

func TestPeeringBlockedWhenInterior(t *testing.T) {
	// If the 1-2 link also appears in the interior of a path whose top
	// is elsewhere, it is disqualified from peering.
	big := p(10, 1, 2, 20)
	// Make AS5 the top by inflating its degree.
	var paths []*dataset.PathObs
	paths = append(paths, big)
	paths = append(paths, p(30, 5, 1, 2, 20))
	for x := asrel.ASN(40); x < 52; x++ {
		paths = append(paths, p(x, 5, x+100))
	}
	res := Infer(slices.Values(paths), DefaultConfig())
	if got := res.Table.Get(1, 2); got == asrel.P2P {
		t.Error("interior link classified as peering")
	}
}

func TestSiblingOnBalancedConflict(t *testing.T) {
	// Link 1-2 annotated downhill in one path and uphill in another,
	// with tops elsewhere (interior positions), balancing the votes.
	var paths []*dataset.PathObs
	paths = append(paths, p(30, 5, 1, 2, 20)) // top 5 → 1 provider... origin side: p2c votes
	paths = append(paths, p(31, 5, 2, 1, 21)) // reversed order
	for x := asrel.ASN(40); x < 52; x++ {
		paths = append(paths, p(x, 5, x+100))
	}
	res := Infer(slices.Values(paths), DefaultConfig())
	if got := res.Table.Get(1, 2); got != asrel.S2S {
		t.Errorf("rel(1,2) = %s, want s2s from balanced conflict", got)
	}
	if res.Siblings == 0 {
		t.Error("no siblings counted")
	}
}

func TestConfigDefaults(t *testing.T) {
	res := Infer(slices.Values(starPaths()), Config{}) // zero ratio falls back to 60
	if res.Table.Len() == 0 {
		t.Error("zero config produced nothing")
	}
}

// TestAccuracyOnSyntheticV4 pins the baseline's overall behaviour: solid
// but imperfect transit detection on the v4 plane — the misinference
// floor the paper attributes to degree heuristics.
func TestAccuracyOnSyntheticV4(t *testing.T) {
	w, err := testutil.BuildWorld(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := Infer(w.D4.Paths(), DefaultConfig())
	s := infer.ScoreTable(res.Table, w.In.Truth4, w.D4.Links())
	if s.Coverage() < 0.95 {
		t.Errorf("gao coverage = %.3f; the heuristic classifies every voted link", s.Coverage())
	}
	if s.Accuracy() < 0.60 || s.Accuracy() > 0.999 {
		t.Errorf("gao accuracy = %.3f; expected solid-but-imperfect", s.Accuracy())
	}
	t.Logf("gao v4: coverage %.1f%% accuracy %.1f%% (peer→transit %d, transit→peer %d)",
		100*s.Coverage(), 100*s.Accuracy(), s.PeerAsTransit, s.TransitAsPeer)
}
