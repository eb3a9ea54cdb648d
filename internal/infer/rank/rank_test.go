package rank

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

func TestTransitDegrees(t *testing.T) {
	paths := []*dataset.PathObs{
		p(1, 2, 3),
		p(4, 2, 5),
		p(1, 2, 3), // duplicate adds nothing
	}
	td := transitDegrees(slices.Values(paths))
	if td[2] != 4 {
		t.Errorf("td[2] = %d, want 4 (neighbors 1,3,4,5)", td[2])
	}
	if td[1] != 0 || td[3] != 0 {
		t.Error("edge ASes must have zero transit degree")
	}
}

func TestCliqueDetection(t *testing.T) {
	w, err := testutil.BuildWorld(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := Infer(w.D6.Paths(), DefaultConfig())
	if len(res.Clique) < 3 {
		t.Fatalf("clique = %v, too small", res.Clique)
	}
	// Structural guarantees: clique members are pairwise adjacent in the
	// observed graph and sit at the very top of the transit hierarchy —
	// in the IPv6 plane that is the free-transit hub and the carriers,
	// exactly as AS6939 topped the real 2010 v6 ranking.
	for i, a := range res.Clique {
		for _, b := range res.Clique[i+1:] {
			if !w.D6.HasLink(asrel.Key(a, b)) {
				t.Errorf("clique members %s and %s are not adjacent", a, b)
			}
		}
	}
	top := false
	for _, a := range res.Clique {
		if a == w.In.FreeTransitHub {
			top = true
		}
		for _, t1 := range w.In.Tier1 {
			if a == t1 {
				top = true
			}
		}
	}
	if !top {
		t.Errorf("clique %v contains neither the hub nor a tier-1", res.Clique)
	}
}

func TestCliqueLinksPeered(t *testing.T) {
	w, err := testutil.BuildWorld(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := Infer(w.D4.Paths(), DefaultConfig())
	for i, a := range res.Clique {
		for _, b := range res.Clique[i+1:] {
			if !w.D4.HasLink(asrel.Key(a, b)) {
				continue
			}
			if got := res.Table.Get(a, b); got != asrel.P2P {
				t.Errorf("clique link %s-%s = %s, want p2p", a, b, got)
			}
		}
	}
}

func TestDominantVotesResistPeering(t *testing.T) {
	// A real clique {5,6,7} sits above mid-tier ASes 1 and 2. Link 1-2
	// has similar transit degrees and is top-adjacent in its paths, but
	// every observation says 1 is the provider: dominance overrides the
	// similarity peering rule.
	var paths []*dataset.PathObs
	// Clique visibility: mutual adjacency plus high transit degree.
	clique := []asrel.ASN{5, 6, 7}
	for i, a := range clique {
		b := clique[(i+1)%3]
		paths = append(paths, p(40+asrel.ASN(i), a, b, 50+asrel.ASN(i)))
		for v := asrel.ASN(0); v < 12; v++ {
			paths = append(paths, p(200+asrel.ASN(i)*20+v, a, 300+asrel.ASN(i)*20+v))
		}
	}
	// The disputed link: unanimous provider votes.
	for v := asrel.ASN(10); v < 16; v++ {
		paths = append(paths, p(v, 1, 2, v+100))
	}
	paths = append(paths, p(30, 2, 31), p(32, 1, 33))
	res := Infer(slices.Values(paths), DefaultConfig())
	for _, c := range clique {
		found := false
		for _, m := range res.Clique {
			if m == c {
				found = true
			}
		}
		if !found {
			t.Fatalf("clique = %v, missing %s", res.Clique, c)
		}
	}
	if got := res.Table.Get(1, 2); got != asrel.P2C {
		t.Errorf("rel(1,2) = %s, want p2c despite degree similarity", got)
	}
}

func TestDefaultsApplied(t *testing.T) {
	res := Infer(slices.Values([]*dataset.PathObs{p(1, 2, 3)}), Config{})
	if res.Table.Len() == 0 {
		t.Error("zero config inferred nothing")
	}
}

func TestAccuracyBeatsGaoStyleOnV4(t *testing.T) {
	w, err := testutil.BuildWorld(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := Infer(w.D4.Paths(), DefaultConfig())
	s := infer.ScoreTable(res.Table, w.In.Truth4, w.D4.Links())
	if s.Coverage() < 0.95 {
		t.Errorf("rank coverage = %.3f", s.Coverage())
	}
	if s.Accuracy() < 0.70 {
		t.Errorf("rank accuracy = %.3f, suspiciously low", s.Accuracy())
	}
	t.Logf("rank v4: coverage %.1f%% accuracy %.1f%% (peer→transit %d, transit→peer %d)",
		100*s.Coverage(), 100*s.Accuracy(), s.PeerAsTransit, s.TransitAsPeer)
}
