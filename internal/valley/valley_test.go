package valley

import (
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/dataset"
	"hybridrel/internal/intern"
	"hybridrel/internal/topology"
)

// rels builds a table from (a, b, rel-of-a-toward-b) triples.
func rels(triples ...[3]int) *intern.Table {
	t := asrel.NewTable()
	for _, tr := range triples {
		t.Set(asrel.ASN(tr[0]), asrel.ASN(tr[1]), asrel.Rel(tr[2]))
	}
	return intern.FromTable(t)
}

func TestCheckValleyFree(t *testing.T) {
	// 1 provider of 2, 2 provider of 3, 1 peers 4, 4 provider of 5.
	tb := rels(
		[3]int{1, 2, int(asrel.P2C)},
		[3]int{2, 3, int(asrel.P2C)},
		[3]int{1, 4, int(asrel.P2P)},
		[3]int{4, 5, int(asrel.P2C)},
	)
	cases := [][]asrel.ASN{
		{5, 4, 1, 2, 3}, // up, up, peer, down seen from the origin
		{3, 2, 1},       // pure uphill
		{1, 2, 3},       // pure downhill
		{4, 1, 2, 3},    // up, up, peer
		{3},             // trivial
		{2, 3},          // single link
	}
	for _, path := range cases {
		if got := Check(path, tb); got != KindValleyFree {
			t.Errorf("Check(%v) = %s, want valley-free", path, got)
		}
	}
}

func TestCheckValley(t *testing.T) {
	tb := rels(
		[3]int{1, 10, int(asrel.P2C)},
		[3]int{1, 2, int(asrel.P2P)},
		[3]int{2, 3, int(asrel.P2P)},
		[3]int{3, 30, int(asrel.P2C)},
		[3]int{7, 1, int(asrel.C2P)}, // 7 customer of 1
		[3]int{7, 2, int(asrel.C2P)}, // 7 customer of 2
	)
	cases := [][]asrel.ASN{
		{10, 1, 2, 3, 30}, // two peering steps
		{10, 1, 2, 3},     // still two peering steps
		{1, 7, 2, 3},      // down to customer 7, then back up: classic leak
		{10, 1, 7, 2},     // down, down, up
	}
	for _, path := range cases {
		if got := Check(path, tb); got != KindValley {
			t.Errorf("Check(%v) = %s, want valley", path, got)
		}
	}
}

func TestCheckUnclassified(t *testing.T) {
	tb := rels([3]int{1, 2, int(asrel.P2C)})
	// Link 2-3 unknown: the path could be valley-free (if 2-3 were p2c).
	if got := Check([]asrel.ASN{1, 2, 3}, tb); got != KindUnclassified {
		t.Errorf("got %s, want unclassified", got)
	}
	// Short unknown path.
	if got := Check([]asrel.ASN{8, 9}, tb); got != KindUnclassified {
		t.Errorf("short unknown = %s", got)
	}
	// An unknown link cannot rescue a proven violation elsewhere.
	tb2 := rels(
		[3]int{1, 2, int(asrel.P2P)},
		[3]int{2, 3, int(asrel.P2P)},
		[3]int{3, 4, int(asrel.P2C)}, // wildcard after the violation? no: 4-5 unknown
	)
	// Path [5,4,3,2,1... ] hmm keep simple: peer-peer violation with a
	// trailing unknown link on the vantage side.
	if got := Check([]asrel.ASN{9, 1, 2, 3}, tb2); got != KindValley {
		t.Errorf("violation with unknown elsewhere = %s, want valley", got)
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{KindValleyFree, KindValley, KindUnclassified} {
		if k.String() == "" {
			t.Error("empty kind name")
		}
	}
}

func pathObs(asns ...asrel.ASN) *dataset.PathObs {
	return &dataset.PathObs{Vantage: asns[0], Path: asns}
}

func TestClassifyStats(t *testing.T) {
	tb := rels(
		[3]int{1, 2, int(asrel.P2C)},
		[3]int{2, 3, int(asrel.P2C)},
		[3]int{1, 4, int(asrel.P2P)},
		[3]int{4, 5, int(asrel.P2P)},
	)
	paths := []*dataset.PathObs{
		pathObs(1, 2, 3),    // valley-free
		pathObs(3, 2, 1, 4), // valley-free (up, up, peer)
		pathObs(2, 1, 4, 5), // valley: peer then peer
		pathObs(1, 2, 9),    // unclassified
	}
	kinds, st := Classify(paths, tb)
	if st.Total != 4 || st.ValleyFree != 2 || st.Valley != 1 || st.Unclassified != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if kinds[2] != KindValley {
		t.Error("per-path kinds wrong")
	}
	if got := st.ValleyShare(); got != 1.0/3.0 {
		t.Errorf("ValleyShare = %v", got)
	}
	if (Stats{}).ValleyShare() != 0 || (Stats{}).NecessaryShare() != 0 {
		t.Error("zero-division guards missing")
	}
}

func TestAssessNecessity(t *testing.T) {
	// Dispute analogue: 1 and 2 unconnected tier-1s, 7 a customer of
	// both, 20 a stub under 2.
	g := topology.New()
	tb := asrel.NewTable()
	add := func(a, b asrel.ASN, r asrel.Rel) {
		g.AddLink(a, b)
		tb.Set(a, b, r)
	}
	add(1, 7, asrel.P2C)
	add(2, 7, asrel.P2C)
	add(2, 20, asrel.P2C)

	leakPath := pathObs(1, 7, 2, 20) // down to 7, up to 2, down to 20
	kinds, st := Assess([]*dataset.PathObs{leakPath}, intern.FromTable(tb), g)
	if kinds[0] != KindValley {
		t.Fatalf("leak path kind = %s", kinds[0])
	}
	if st.Necessary != 1 {
		t.Errorf("Necessary = %d, want 1 (no valley-free alternative)", st.Necessary)
	}
	if st.NecessaryShare() != 1 {
		t.Errorf("NecessaryShare = %v", st.NecessaryShare())
	}

	// Restore the direct peering: the same valley path becomes
	// unnecessary.
	add(1, 2, asrel.P2P)
	_, st2 := Assess([]*dataset.PathObs{leakPath}, intern.FromTable(tb), g)
	if st2.Valley != 1 || st2.Necessary != 0 {
		t.Errorf("after peering restored: %+v", st2)
	}
}
