package ctree

import (
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/intern"
	"hybridrel/internal/topology"
)

// link is one test link with its relationship, a toward b.
type link struct {
	a, b asrel.ASN
	r    asrel.Rel
}

// world builds the graph of the given links and the mutable table of
// their relationships.
func world(links ...link) (*topology.Graph, *asrel.Table) {
	keys := make([]asrel.LinkKey, 0, len(links))
	t := asrel.NewTable()
	for _, l := range links {
		keys = append(keys, asrel.Key(l.a, l.b))
		t.Set(l.a, l.b, l.r)
	}
	return topology.FromLinks(nil, keys), t
}

// figure1 builds the paper's Figure-1 example: AS1 linked to AS2 and
// AS3, AS2 providing transit to AS4 and AS5. The 1–2 link's type decides
// AS1's customer tree.
func figure1(rel12 asrel.Rel) (*topology.Graph, *intern.Table) {
	g, t := world(
		link{1, 2, rel12},
		link{1, 3, asrel.P2C},
		link{2, 4, asrel.P2C},
		link{2, 5, asrel.P2C},
	)
	return g, intern.FromTable(t)
}

func TestFigure1CustomerTreeFlip(t *testing.T) {
	// (a) 1–2 is p2c: AS1 reaches every node through p2c links.
	g, tb := figure1(asrel.P2C)
	tree := g.CustomerCone(tb, 1)
	if len(tree) != 4 || !tree[2] || !tree[3] || !tree[4] || !tree[5] {
		t.Errorf("p2c tree = %v, want {2,3,4,5}", tree)
	}
	// (b) 1–2 is p2p: only AS3 remains in AS1's customer tree.
	g2, tb2 := figure1(asrel.P2P)
	tree2 := g2.CustomerCone(tb2, 1)
	if len(tree2) != 1 || !tree2[3] {
		t.Errorf("p2p tree = %v, want {3}", tree2)
	}
	if n := len(g2.CustomerCone(tb2, 2)); n != 2 {
		t.Errorf("customer tree of AS2 has %d members, want 2", n)
	}
}

func TestUnionGraph(t *testing.T) {
	g, tb := figure1(asrel.P2P)
	ug := UnionGraph(g, tb)
	// The p2p 1–2 link is excluded; three p2c links remain.
	if ug.NumLinks() != 3 || ug.NumNodes() != 5 {
		t.Fatalf("union has %d links over %d nodes, want 3 over 5", ug.NumLinks(), ug.NumNodes())
	}
	if ug.HasLink(1, 2) || !ug.HasLink(4, 2) {
		t.Error("union graph holds the wrong links")
	}
	if empty := UnionGraph(g, new(intern.Table)); empty.NumNodes() != 0 {
		t.Errorf("empty annotation built a union of %d nodes", empty.NumNodes())
	}
}

// TestMeasureUnion holds the metric's description of the union of
// customer trees to the union graph it measures.
func TestMeasureUnion(t *testing.T) {
	g, tb := figure1(asrel.P2C)
	m := MeasureTrees(g, tb, 0)
	if m.Nodes != 5 || m.Links != 4 {
		t.Fatalf("metric topology = %+v, want 5 nodes and 4 links", m)
	}
	// With 1–2 p2p the peering link leaves the union; every node stays.
	g2, tb2 := figure1(asrel.P2P)
	if m2 := MeasureTrees(g2, tb2, 0); m2.Nodes != 5 || m2.Links != 3 {
		t.Errorf("p2p metric topology = %+v, want 5 nodes and 3 links", m2)
	}
	// Empty annotation → empty union, nothing measured.
	empty := MeasureTrees(g, new(intern.Table), 0)
	if empty.Nodes != 0 || empty.Links != 0 || empty.Pairs != 0 || empty.Avg != 0 {
		t.Errorf("empty union = %+v", empty)
	}
}

func TestMeasureUnionSampling(t *testing.T) {
	// Chain of p2c links 1→2→…→40: sampling roots must still produce a
	// sane (subset) measurement of the same union graph.
	var links []link
	for i := asrel.ASN(1); i < 40; i++ {
		links = append(links, link{i, i + 1, asrel.P2C})
	}
	g, tb := world(links...)
	rels := intern.FromTable(tb)
	exact := MeasureTrees(g, rels, 0)
	sampled := MeasureTrees(g, rels, 10)
	if sampled.Pairs == 0 || sampled.Pairs >= exact.Pairs {
		t.Errorf("sampling did not reduce work: %d vs %d", sampled.Pairs, exact.Pairs)
	}
	if sampled.Diameter > exact.Diameter {
		t.Errorf("sampled diameter %d exceeds exact %d", sampled.Diameter, exact.Diameter)
	}
	if sampled.Nodes != exact.Nodes || sampled.Links != exact.Links {
		t.Error("sampling changed the subgraph itself")
	}
}

func TestMeasureTrees(t *testing.T) {
	// Figure-1 world with 1–2 p2c: trees are 1→{2,3,4,5} at depths
	// 1,1,2,2 and 2→{4,5} at depth 1,1: six pairs, sum 8.
	g, tb := figure1(asrel.P2C)
	m := MeasureTrees(g, tb, 0)
	if m.Pairs != 6 {
		t.Fatalf("pairs = %d, want 6", m.Pairs)
	}
	if m.Diameter != 2 {
		t.Errorf("diameter = %d, want 2", m.Diameter)
	}
	if want := 8.0 / 6.0; m.Avg != want {
		t.Errorf("avg = %v, want %v", m.Avg, want)
	}
	// With 1–2 p2p, tree(1) = {3} and tree(2) = {4,5}: three pairs all
	// at depth 1.
	g2, tb2 := figure1(asrel.P2P)
	m2 := MeasureTrees(g2, tb2, 0)
	if m2.Pairs != 3 || m2.Diameter != 1 || m2.Avg != 1 {
		t.Errorf("p2p metric = %+v", m2)
	}
	// Root sampling reduces the measured pair population.
	sampled := MeasureTrees(g, tb, 1)
	if sampled.Pairs >= m.Pairs || sampled.Pairs == 0 {
		t.Errorf("sampled pairs = %d (exact %d)", sampled.Pairs, m.Pairs)
	}
}

func TestMeasureTreesUsesShortcuts(t *testing.T) {
	// Root 1 owns a deep chain 1→2→3→4 and also directly provides for 9,
	// which peers... rather: 1 is also a direct provider of 4 via 9:
	// 1→9 (p2c), 9→4 (p2c). The shortest valley-free distance from 1 to
	// 4 is then 2, not the 3-hop chain.
	g, tb := world(
		link{1, 2, asrel.P2C},
		link{2, 3, asrel.P2C},
		link{3, 4, asrel.P2C},
		link{1, 9, asrel.P2C},
		link{9, 4, asrel.P2C},
	)
	m := MeasureTrees(g, intern.FromTable(tb), 0)
	// dist(1,4) must be 2 via 9; the diameter of all pairs here is 2
	// (e.g. 1→3).
	if m.Diameter != 2 {
		t.Errorf("diameter = %d, want 2 (shortcut not used)", m.Diameter)
	}
}

func TestSweep(t *testing.T) {
	// Two provider islands bridged by a link mis-inferred as p2p; the
	// correction to p2c merges island 10's cone into island 1's trees,
	// adding (root, member) pairs.
	g, base := world(
		link{1, 2, asrel.P2C},
		link{2, 3, asrel.P2C},
		link{10, 11, asrel.P2C},
		link{11, 12, asrel.P2C},
		link{3, 10, asrel.P2P}, // truly p2c in the "real" world
	)

	corrections := []Correction{
		{Key: asrel.Key(3, 10), Rel: asrel.P2C, Visibility: 100},
	}
	pts := Sweep(g, base, corrections, 0)
	if len(pts) != 2 {
		t.Fatalf("sweep points = %d", len(pts))
	}
	if pts[0].Corrected != 0 || pts[1].Corrected != 1 {
		t.Error("sweep order wrong")
	}
	if pts[1].Metric.Pairs <= pts[0].Metric.Pairs {
		t.Errorf("correction did not add tree pairs: %d → %d",
			pts[0].Metric.Pairs, pts[1].Metric.Pairs)
	}
	if pts[1].Metric.Links != pts[0].Metric.Links+1 {
		t.Errorf("union links %d → %d, want +1", pts[0].Metric.Links, pts[1].Metric.Links)
	}
	// The sweep must not mutate the base annotation.
	if base.Get(3, 10) != asrel.P2P {
		t.Error("Sweep mutated the base table")
	}
}

func TestSweepVisibilityOrder(t *testing.T) {
	g, base := world(link{1, 2, asrel.P2P}, link{3, 4, asrel.P2P})
	corrections := []Correction{
		{Key: asrel.Key(1, 2), Rel: asrel.P2C, Visibility: 5},
		{Key: asrel.Key(3, 4), Rel: asrel.P2C, Visibility: 50},
	}
	pts := Sweep(g, base, corrections, 0)
	// After the first step only the high-visibility link (3,4) is
	// corrected: the union graph has exactly one link.
	if pts[1].Metric.Links != 1 {
		t.Fatalf("first corrected step has %d union links", pts[1].Metric.Links)
	}
	if pts[2].Metric.Links != 2 {
		t.Fatalf("second corrected step has %d union links", pts[2].Metric.Links)
	}
}
