package topology

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"hybridrel/internal/asrel"
	"hybridrel/internal/intern"
)

// link is one test link with its relationship, a toward b.
type link struct {
	a, b asrel.ASN
	r    asrel.Rel
}

// annotated builds the graph of the given links and the table holding
// each link's relationship (Lo→Hi as written, a toward b).
func annotated(links ...link) (*Graph, *intern.Table) {
	keys := make([]asrel.LinkKey, 0, len(links))
	t := asrel.NewTable()
	for _, l := range links {
		keys = append(keys, asrel.Key(l.a, l.b))
		if l.r != asrel.Unknown {
			t.Set(l.a, l.b, l.r)
		}
	}
	return FromLinks(nil, keys), intern.FromTable(t)
}

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
	return annotated(
		link{1, 2, asrel.P2C},
		link{2, 3, asrel.P2C},
		link{1, 4, asrel.P2P},
		link{4, 5, asrel.P2C},
	)
}

func TestFromLinksBasics(t *testing.T) {
	g := FromLinks([]asrel.ASN{9, 1}, []asrel.LinkKey{
		asrel.Key(1, 2),
		{Lo: 2, Hi: 1}, // the same link, written the other way round
		{Lo: 3, Hi: 3}, // a self-link
	})
	if g.NumNodes() != 3 || g.NumLinks() != 1 {
		t.Errorf("NumNodes=%d NumLinks=%d, want 3/1", g.NumNodes(), g.NumLinks())
	}
	if !g.HasLink(1, 2) || !g.HasLink(2, 1) || g.HasLink(1, 3) || g.HasLink(1, 77) {
		t.Error("HasLink misreports")
	}
	if _, ok := g.Index(9); !ok || g.Degree(9) != 0 {
		t.Error("isolated node 9 must be kept")
	}
	if _, ok := g.Index(3); ok {
		t.Error("self-linked 3 must not appear")
	}
	if g.Degree(1) != 1 || g.Degree(77) != 0 {
		t.Errorf("Degree(1)=%d Degree(77)=%d, want 1/0", g.Degree(1), g.Degree(77))
	}
	if nodes := g.Nodes(); !reflect.DeepEqual(nodes, []asrel.ASN{1, 2, 9}) {
		t.Errorf("Nodes = %v, want [1 2 9]", nodes)
	}
	empty := FromLinks(nil, nil)
	if empty.NumNodes() != 0 || empty.NumLinks() != 0 || len(empty.LinkKeys()) != 0 {
		t.Error("empty graph is not empty")
	}
}

func TestLinkKeysSorted(t *testing.T) {
	g := FromLinks(nil, []asrel.LinkKey{{Lo: 5, Hi: 1}, asrel.Key(2, 1), asrel.Key(9, 5)})
	want := []asrel.LinkKey{asrel.Key(1, 2), asrel.Key(1, 5), asrel.Key(5, 9)}
	if ks := g.LinkKeys(); !reflect.DeepEqual(ks, want) {
		t.Errorf("LinkKeys = %v, want %v", ks, want)
	}
}

// assertCSR checks the structural promises of a graph: ascending nodes,
// sorted rows without self-loops, and symmetric adjacency.
func assertCSR(t *testing.T, g *Graph) {
	t.Helper()
	if !slices.IsSorted(g.Nodes()) {
		t.Fatal("nodes not ascending")
	}
	off, nbr := g.Offsets(), g.Targets()
	if len(off) != g.NumNodes()+1 || int(off[g.NumNodes()]) != len(nbr) || len(nbr)%2 != 0 {
		t.Fatalf("offsets %v do not frame %d targets", off, len(nbr))
	}
	for i := int32(0); int(i) < g.NumNodes(); i++ {
		row := nbr[off[i]:off[i+1]]
		for k, j := range row {
			if j == i || (k > 0 && row[k-1] >= j) {
				t.Fatalf("row %d = %v is not strictly ascending without self-loops", i, row)
			}
			back := nbr[off[j]:off[j+1]]
			if _, ok := slices.BinarySearch(back, i); !ok {
				t.Fatalf("edge %d→%d has no reverse", i, j)
			}
		}
	}
}

// Property: FromLinks of a shuffled list with duplicates (both ways
// round) and self-links equals FromLinks of the canonical list, and the
// result is a well-formed CSR that keeps isolated nodes.
func TestFromLinksCanonicalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 50; trial++ {
		set := make(map[asrel.LinkKey]bool)
		var noisy []asrel.LinkKey
		for i := 0; i < rng.Intn(200); i++ {
			a, b := asrel.ASN(rng.Intn(60)+1), asrel.ASN(rng.Intn(60)+1)
			noisy = append(noisy, asrel.LinkKey{Lo: a, Hi: b})
			if rng.Intn(3) == 0 {
				noisy = append(noisy, asrel.LinkKey{Lo: b, Hi: a})
			}
			if a != b {
				set[asrel.Key(a, b)] = true
			}
		}
		rng.Shuffle(len(noisy), func(i, j int) { noisy[i], noisy[j] = noisy[j], noisy[i] })
		canonical := make([]asrel.LinkKey, 0, len(set))
		for k := range set {
			canonical = append(canonical, k)
		}
		slices.SortFunc(canonical, func(x, y asrel.LinkKey) int {
			if x.Lo != y.Lo {
				return int(x.Lo) - int(y.Lo)
			}
			return int(x.Hi) - int(y.Hi)
		})
		isolated := []asrel.ASN{100, 61, 100}
		before := slices.Clone(noisy)

		got, want := FromLinks(isolated, noisy), FromLinks(isolated, canonical)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: shuffled input built a different graph", trial)
		}
		if !reflect.DeepEqual(noisy, before) {
			t.Fatal("FromLinks modified its input")
		}
		assertCSR(t, got)
		if !reflect.DeepEqual(got.LinkKeys(), canonical) {
			t.Fatalf("trial %d: LinkKeys = %v, want %v", trial, got.LinkKeys(), canonical)
		}
		_, has100 := got.Index(100)
		_, has61 := got.Index(61)
		if !has100 || !has61 || got.Degree(100) != 0 {
			t.Fatalf("trial %d: isolated nodes lost", trial)
		}
	}
}

func TestCSR(t *testing.T) {
	g := FromLinks(nil, []asrel.LinkKey{
		asrel.Key(10, 20), asrel.Key(10, 30), asrel.Key(20, 30), asrel.Key(40, 10),
	})
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	assertCSR(t, g)
	i10, ok := g.Index(10)
	if !ok {
		t.Fatal("Index(10) missing")
	}
	var got []asrel.ASN
	for _, n := range g.row(i10) {
		got = append(got, g.Nodes()[n])
	}
	if !reflect.DeepEqual(got, []asrel.ASN{20, 30, 40}) {
		t.Fatalf("neighbours of 10 = %v", got)
	}
	if _, ok := g.Index(99); ok {
		t.Fatal("Index invented a node")
	}

	// EdgeRels aligns with Targets, in both directions of every edge.
	tbl := asrel.NewTable()
	tbl.Set(10, 20, asrel.P2C)
	tbl.Set(10, 30, asrel.P2P)
	tbl.Set(30, 20, asrel.P2C)
	assertEdgeRels(t, g, tbl)
}

// assertEdgeRels checks EdgeRels against a per-edge Get on every
// directed edge of g.
func assertEdgeRels(t *testing.T, g *Graph, tbl *asrel.Table) {
	t.Helper()
	rels := g.EdgeRels(intern.FromTable(tbl))
	off, nbr, asns := g.Offsets(), g.Targets(), g.Nodes()
	for i, a := range asns {
		for p := off[i]; p < off[i+1]; p++ {
			b := asns[nbr[p]]
			if want := tbl.Get(a, b); rels[p] != want {
				t.Fatalf("EdgeRels(%s→%s) = %s, want %s", a, b, rels[p], want)
			}
		}
	}
}

// TestEdgeRelsMatchesGet holds the cursor-sweep annotation to a lookup
// per edge on random graphs whose links the table covers only in part
// (and whose table holds links the graph lacks).
func TestEdgeRelsMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		tbl := asrel.NewTable()
		for i := 0; i < 300; i++ {
			a, b := asrel.ASN(rng.Intn(200)+1), asrel.ASN(rng.Intn(200)+1)
			if a != b {
				tbl.Set(a, b, asrel.Rel(rng.Intn(5)))
			}
		}
		var links []asrel.LinkKey
		for _, k := range tbl.Keys() {
			if rng.Intn(3) > 0 {
				links = append(links, k)
			}
		}
		for i := 0; i < 100; i++ {
			links = append(links, asrel.LinkKey{Lo: asrel.ASN(rng.Intn(250) + 1), Hi: asrel.ASN(rng.Intn(250) + 1)})
		}
		assertEdgeRels(t, FromLinks(nil, links), tbl)
	}
}

func TestCustomerCone(t *testing.T) {
	g, tb := chainGraph()
	cone := g.CustomerCone(tb, 1)
	if len(cone) != 2 || !cone[2] || !cone[3] {
		t.Errorf("CustomerCone(1) = %v, want {2,3}", cone)
	}
	if len(g.CustomerCone(tb, 3)) != 0 || len(g.CustomerCone(tb, 77)) != 0 {
		t.Error("stub and absent AS must have empty cones")
	}
	// A p2c cycle must not loop forever and must not contain the root.
	g2, t2 := annotated(link{1, 2, asrel.P2C}, link{2, 3, asrel.P2C}, link{3, 1, asrel.P2C})
	cone2 := g2.CustomerCone(t2, 1)
	if cone2[1] {
		t.Error("cone contains its root")
	}
	if len(cone2) != 2 {
		t.Errorf("cycle cone = %v, want {2,3}", cone2)
	}
}

// TestWalkerReuse runs one Walker's cones and valley-free searches over
// every node in turn and holds each to a fresh walk: the reused scratch
// must carry nothing from one call to the next.
func TestWalkerReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var keys []asrel.LinkKey
	tbl := asrel.NewTable()
	for i := 0; i < 120; i++ {
		a, b := asrel.ASN(rng.Intn(40)+1), asrel.ASN(rng.Intn(40)+1)
		keys = append(keys, asrel.Key(a, b))
		if a != b && rng.Intn(5) > 0 {
			tbl.Set(a, b, asrel.Rel(rng.Intn(4)+1))
		}
	}
	g, rels := FromLinks(nil, keys), intern.FromTable(tbl)
	w := g.Walk(rels)
	for i := int32(0); int(i) < g.NumNodes(); i++ {
		for _, lenient := range []bool{false, true} {
			fresh := g.Walk(rels)
			if got, want := w.Cone(i), fresh.Cone(i); !slices.Equal(got, want) {
				t.Fatalf("cone of %d: reused walker %v, fresh %v", i, got, want)
			}
			w.ValleyFree(i, lenient)
			fresh.ValleyFree(i, lenient)
			for j := int32(0); int(j) < g.NumNodes(); j++ {
				if w.Dist(j) != fresh.Dist(j) {
					t.Fatalf("dist %d→%d (lenient %v): reused %d, fresh %d", i, j, lenient, w.Dist(j), fresh.Dist(j))
				}
			}
		}
	}
}

func TestBFSDist(t *testing.T) {
	g, _ := chainGraph()
	d := g.BFSDist(3)
	want := map[asrel.ASN]int{3: 0, 2: 1, 1: 2, 4: 3, 5: 4}
	if !reflect.DeepEqual(d, want) {
		t.Errorf("BFSDist = %v, want %v", d, want)
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
	g, rels := annotated(
		link{1, 10, asrel.P2C},
		link{1, 2, asrel.P2P},
		link{2, 3, asrel.P2P},
		link{3, 30, asrel.P2C},
	)
	// 10 reaches {10:0, 1:1, 2:2} (up, then one peering step); 3 and 30
	// are unreachable: the (p2p, p2p) valley is blocked.
	if got, want := g.ValleyFreeDist(rels, 10), (map[asrel.ASN]int{10: 0, 1: 1, 2: 2}); !reflect.DeepEqual(got, want) {
		t.Errorf("vfdist(10) = %v, want %v", got, want)
	}
	// 2 is a peer of 3, so 2→3 (p2p) then 3→30 (p2c) IS valley-free.
	if d, ok := g.ValleyFreeDist(rels, 2)[30]; !ok || d != 2 {
		t.Errorf("vfdist(2,30) = %d (ok=%v): peer then customer descent must be valley-free", d, ok)
	}
}

func TestValleyFreeSiblingTransparent(t *testing.T) {
	// 3 -c2p-> 2 =s2s= 1 -p2c-> 9: sibling link preserves state both ways.
	g, rels := annotated(
		link{2, 3, asrel.P2C},
		link{1, 2, asrel.S2S},
		link{1, 9, asrel.P2C},
	)
	if d, ok := g.ValleyFreeDist(rels, 3)[9]; !ok || d != 3 {
		t.Errorf("vfdist(3,9) = %d (ok=%v), want 3: uphill through sibling then downhill", d, ok)
	}
}

func TestValleyFreeUnknownEdgesBlocked(t *testing.T) {
	g := FromLinks(nil, []asrel.LinkKey{asrel.Key(1, 2)}) // relationship never set
	d := g.ValleyFreeDist(new(intern.Table), 1)
	if _, ok := d[2]; ok {
		t.Error("unknown-relationship link must not be traversable")
	}
	if got, ok := d[1]; !ok || got != 0 {
		t.Error("a node must reach itself at distance 0")
	}
	if len(g.ValleyFreeDist(new(intern.Table), 77)) != 0 {
		t.Error("an absent source must reach nothing")
	}
	if _, ok := d[77]; ok {
		t.Error("an absent destination must be unreachable")
	}

	// Lenient semantics grant an unknown link one peering step at the
	// top of the path, no more.
	g2, rels := annotated(link{1, 2, asrel.Unknown}, link{2, 3, asrel.Unknown}, link{2, 4, asrel.P2C})
	w := g2.Walk(rels)
	s, _ := g2.Index(1)
	w.ValleyFree(s, true)
	for a, want := range map[asrel.ASN]int{1: 0, 2: 1, 3: -1, 4: 2} {
		i, _ := g2.Index(a)
		if got := w.Dist(i); got != want {
			t.Errorf("lenient dist(1,%s) = %d, want %d", a, got, want)
		}
	}
}

// TestValleyFreeStats aggregates valley-free distances over every
// (source, destination) pair with one reused Walker, the way the
// valley and ctree measurements do, and holds the totals to per-source
// ValleyFreeDist sums and to the chain's known extremes.
func TestValleyFreeStats(t *testing.T) {
	g, tb := chainGraph()
	stats := func(sources []asrel.ASN) (pairs, diameter, sum int) {
		w := g.Walk(tb)
		for _, src := range sources {
			s, ok := g.Index(src)
			if !ok {
				continue
			}
			w.ValleyFree(s, false)
			for i := int32(0); int(i) < g.NumNodes(); i++ {
				if d := w.Dist(i); i != s && d >= 0 {
					pairs++
					sum += d
					diameter = max(diameter, d)
				}
			}
		}
		return pairs, diameter, sum
	}
	pairs, diameter, sum := stats(g.Nodes())
	if pairs == 0 {
		t.Fatal("no connected pairs found")
	}
	if diameter != 4 {
		t.Errorf("diameter = %d, want 4 (3→5)", diameter)
	}
	var wantSum, wantPairs int
	for _, src := range g.Nodes() {
		for dst, d := range g.ValleyFreeDist(tb, src) {
			if dst != src {
				wantSum += d
				wantPairs++
			}
		}
	}
	if pairs != wantPairs || sum != wantSum {
		t.Errorf("pairs/sum = %d/%d, want %d/%d", pairs, sum, wantPairs, wantSum)
	}
	// Restricting sources must shrink the pair count accordingly.
	if p, d, _ := stats([]asrel.ASN{3}); p != 4 || d != 4 {
		t.Errorf("source-restricted stats: %d pairs, diameter %d; want 4/4", p, d)
	}
	// Unknown sources are skipped silently.
	if p, _, _ := stats([]asrel.ASN{4242}); p != 0 {
		t.Errorf("absent source produced %d pairs", p)
	}
}

// Property: a valley-free distance can never beat the unconstrained BFS
// distance, and valley-free reachability implies plain reachability.
func TestValleyFreeDominatedByBFS(t *testing.T) {
	f := func(edges []struct{ A, B uint8 }, rels []uint8) bool {
		var keys []asrel.LinkKey
		tb := asrel.NewTable()
		for i, e := range edges {
			a, b := asrel.ASN(e.A%24), asrel.ASN(e.B%24)
			if a == b {
				continue
			}
			keys = append(keys, asrel.Key(a, b))
			if i < len(rels) {
				tb.Set(a, b, asrel.Rel(rels[i]%4)+1)
			}
		}
		g := FromLinks(nil, keys)
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
