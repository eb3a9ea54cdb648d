package topology

import (
	"testing"
	"testing/quick"

	"hybridrel/internal/asrel"
	"hybridrel/internal/intern"
)

// chainGraph builds 1 --p2c--> 2 --p2c--> 3 with 1 --p2p-- 4 --p2c--> 5.
//
//	1 ---- p2p ---- 4
//	|               |
//	p2c             p2c
//	v               v
//	2               5
//	|
//	p2c
//	v
//	3
func chainGraph() (*Graph, *intern.Table) {
	g := New()
	t := asrel.NewTable()
	add := func(a, b asrel.ASN, r asrel.Rel) {
		g.AddLink(a, b)
		t.Set(a, b, r)
	}
	add(1, 2, asrel.P2C)
	add(2, 3, asrel.P2C)
	add(1, 4, asrel.P2P)
	add(4, 5, asrel.P2C)
	return g, intern.FromTable(t)
}

func TestAddLinkBasics(t *testing.T) {
	g := New()
	if !g.AddLink(1, 2) {
		t.Fatal("first AddLink returned false")
	}
	if g.AddLink(2, 1) {
		t.Error("duplicate link (reversed) was added")
	}
	if g.AddLink(3, 3) {
		t.Error("self-link was added")
	}
	if g.NumNodes() != 2 || g.NumLinks() != 1 {
		t.Errorf("NumNodes=%d NumLinks=%d, want 2/1", g.NumNodes(), g.NumLinks())
	}
	if !g.HasLink(1, 2) || !g.HasLink(2, 1) || g.HasLink(1, 3) {
		t.Error("HasLink misreports")
	}
	g.AddNode(9)
	if !g.HasNode(9) || g.Degree(9) != 0 {
		t.Error("AddNode failed for isolated AS")
	}
	nodes := g.Nodes()
	if len(nodes) != 3 || nodes[0] != 1 || nodes[1] != 2 || nodes[2] != 9 {
		t.Errorf("Nodes = %v, want [1 2 9]", nodes)
	}
}

func TestLinkKeysSorted(t *testing.T) {
	g := New()
	g.AddLink(5, 1)
	g.AddLink(2, 1)
	g.AddLink(9, 5)
	ks := g.LinkKeys()
	want := []asrel.LinkKey{asrel.Key(1, 2), asrel.Key(1, 5), asrel.Key(5, 9)}
	if len(ks) != len(want) {
		t.Fatalf("LinkKeys = %v", ks)
	}
	for i := range ks {
		if ks[i] != want[i] {
			t.Errorf("LinkKeys[%d] = %v, want %v", i, ks[i], want[i])
		}
	}
}

func TestCustomerCone(t *testing.T) {
	g, tb := chainGraph()
	cone := g.CustomerCone(tb, 1)
	if len(cone) != 2 || !cone[2] || !cone[3] {
		t.Errorf("CustomerCone(1) = %v, want {2,3}", cone)
	}
	if len(g.CustomerCone(tb, 3)) != 0 {
		t.Error("stub must have empty cone")
	}
	// A p2c cycle must not loop forever and must not contain the root.
	g2 := New()
	t2 := asrel.NewTable()
	g2.AddLink(1, 2)
	g2.AddLink(2, 3)
	g2.AddLink(3, 1)
	t2.Set(1, 2, asrel.P2C)
	t2.Set(2, 3, asrel.P2C)
	t2.Set(3, 1, asrel.P2C)
	cone2 := g2.CustomerCone(intern.FromTable(t2), 1)
	if cone2[1] {
		t.Error("cone contains its root")
	}
	if len(cone2) != 2 {
		t.Errorf("cycle cone = %v, want {2,3}", cone2)
	}
}

func TestBFSDist(t *testing.T) {
	g, _ := chainGraph()
	d := g.BFSDist(3)
	want := map[asrel.ASN]int{3: 0, 2: 1, 1: 2, 4: 3, 5: 4}
	if len(d) != len(want) {
		t.Fatalf("BFSDist = %v", d)
	}
	for a, w := range want {
		if d[a] != w {
			t.Errorf("dist(3,%s) = %d, want %d", a, d[a], w)
		}
	}
	if len(g.BFSDist(1234)) != 0 {
		t.Error("BFSDist from absent node must be empty")
	}
}

func TestValleyFreeDistChain(t *testing.T) {
	g, tb := chainGraph()
	d := g.ValleyFreeDist(tb, 3)
	// 3 climbs to 2, 1, crosses the peering to 4, descends to 5.
	want := map[asrel.ASN]int{3: 0, 2: 1, 1: 2, 4: 3, 5: 4}
	for a, w := range want {
		got, ok := d[a]
		if !ok || got != w {
			t.Errorf("vfdist(3,%s) = %d (ok=%v), want %d", a, got, ok, w)
		}
	}
	// Descending from 1: only its own customer branch; the peer branch
	// is reachable via the single p2p step.
	d1 := g.ValleyFreeDist(tb, 1)
	if d1[3] != 2 || d1[5] != 2 {
		t.Errorf("vfdist(1,·) = %v", d1)
	}
}

func TestValleyFreeBlocksValleys(t *testing.T) {
	// Two stubs whose only connection crosses two consecutive p2p links:
	// 10 <-p2c- 1 -p2p- 2 -p2p- 3 -p2c-> 30. No valley-free path 10→30.
	g := New()
	tb := asrel.NewTable()
	g.AddLink(1, 10)
	tb.Set(1, 10, asrel.P2C)
	g.AddLink(1, 2)
	tb.Set(1, 2, asrel.P2P)
	g.AddLink(2, 3)
	tb.Set(2, 3, asrel.P2P)
	g.AddLink(3, 30)
	tb.Set(3, 30, asrel.P2C)
	rels := intern.FromTable(tb)
	if g.ValleyFreeReachable(rels, 10, 30) {
		t.Error("valley path (p2p,p2p) reported valley-free reachable")
	}
	if !g.ValleyFreeReachable(rels, 10, 2) {
		t.Error("10 should reach 2 via up + one peering step")
	}
	if got := g.ValleyFreeDist(rels, 10); got[30] != 0 && len(got) != 3 {
		// 10 reaches {10:0, 1:1, 2:2}; 3 and 30 are unreachable.
		t.Errorf("vfdist(10) = %v", got)
	}
	// A provider route may not be re-exported to a peer: 2 must not
	// reach 30 through 3's peering after descending... 2 is a peer of 3,
	// so 2→3 (p2p) then 3→30 (p2c) IS valley-free.
	if !g.ValleyFreeReachable(rels, 2, 30) {
		t.Error("peer then customer descent must be valley-free")
	}
}

func TestValleyFreeSiblingTransparent(t *testing.T) {
	// 3 -c2p-> 2 =s2s= 1 -p2c-> 9: sibling link preserves state both ways.
	g := New()
	tb := asrel.NewTable()
	g.AddLink(2, 3)
	tb.Set(2, 3, asrel.P2C)
	g.AddLink(1, 2)
	tb.Set(1, 2, asrel.S2S)
	g.AddLink(1, 9)
	tb.Set(1, 9, asrel.P2C)
	rels := intern.FromTable(tb)
	if !g.ValleyFreeReachable(rels, 3, 9) {
		t.Error("uphill through sibling then downhill must be reachable")
	}
	d := g.ValleyFreeDist(rels, 3)
	if d[9] != 3 {
		t.Errorf("vfdist(3,9) = %d, want 3", d[9])
	}
}

func TestValleyFreeUnknownEdgesBlocked(t *testing.T) {
	g := New()
	tb := new(intern.Table)
	g.AddLink(1, 2) // relationship never set
	if g.ValleyFreeReachable(tb, 1, 2) {
		t.Error("unknown-relationship link must not be traversable")
	}
	if !g.ValleyFreeReachable(tb, 1, 1) {
		t.Error("a node must reach itself")
	}
	if g.ValleyFreeReachable(tb, 77, 1) || g.ValleyFreeReachable(tb, 1, 77) {
		t.Error("absent nodes must be unreachable")
	}
}

func TestValleyFreeStats(t *testing.T) {
	g, tb := chainGraph()
	st := g.ValleyFreeStats(tb, nil)
	if st.Pairs == 0 {
		t.Fatal("no connected pairs found")
	}
	if st.Diameter != 4 {
		t.Errorf("diameter = %d, want 4 (3→5)", st.Diameter)
	}
	// Spot-check against per-source sums.
	var sum, pairs int
	for _, src := range g.Nodes() {
		for dst, d := range g.ValleyFreeDist(tb, src) {
			if dst == src {
				continue
			}
			sum += d
			pairs++
		}
	}
	if st.Pairs != pairs {
		t.Errorf("Pairs = %d, want %d", st.Pairs, pairs)
	}
	if want := float64(sum) / float64(pairs); st.Avg != want {
		t.Errorf("Avg = %v, want %v", st.Avg, want)
	}
	// Restricting sources must shrink the pair count accordingly.
	st3 := g.ValleyFreeStats(tb, []asrel.ASN{3})
	if st3.Pairs != 4 || st3.Diameter != 4 {
		t.Errorf("source-restricted stats = %+v", st3)
	}
	// Unknown sources are skipped silently.
	if got := g.ValleyFreeStats(tb, []asrel.ASN{4242}); got.Pairs != 0 {
		t.Errorf("absent source produced pairs: %+v", got)
	}
}

func TestMutationInvalidatesIndex(t *testing.T) {
	g, tb := chainGraph()
	_ = g.ValleyFreeDist(tb, 3) // freeze
	g.AddLink(3, 6)
	var edit intern.TableBuilder
	_ = edit.Append(asrel.Key(3, 6), asrel.P2C)
	d := g.ValleyFreeDist(intern.Patch(tb, edit.Table()), 3)
	if d[6] != 1 {
		t.Errorf("new link not visible after freeze: %v", d)
	}
}

// Property: a valley-free distance can never beat the unconstrained BFS
// distance, and valley-free reachability implies plain reachability.
func TestValleyFreeDominatedByBFS(t *testing.T) {
	f := func(edges []struct{ A, B uint8 }, rels []uint8) bool {
		g := New()
		tb := asrel.NewTable()
		for i, e := range edges {
			a, b := asrel.ASN(e.A%24), asrel.ASN(e.B%24)
			if a == b {
				continue
			}
			g.AddLink(a, b)
			if i < len(rels) {
				tb.Set(a, b, asrel.Rel(rels[i]%4)+1)
			}
		}
		if g.NumNodes() == 0 {
			return true
		}
		src := g.Nodes()[0]
		bfs := g.BFSDist(src)
		for dst, vd := range g.ValleyFreeDist(intern.FromTable(tb), src) {
			bd, ok := bfs[dst]
			if !ok || vd < bd {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
