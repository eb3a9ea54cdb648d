// Package ctree implements the paper's "customer tree" metric (§4,
// Figures 1 and 2): the union of all customer trees as a subgraph (a
// root's tree is the set of ASes it reaches through p2c links only,
// topology.Graph.CustomerCone), the average shortest valley-free
// distance and diameter from each root to its tree's members, and the
// Figure-2 correction sweep in which mis-inferred hybrid relationships
// are fixed one at a time in order of path visibility.
package ctree

import (
	"sort"

	"hybridrel/internal/asrel"
	"hybridrel/internal/intern"
	"hybridrel/internal/topology"
)

// UnionGraph materializes the union of all customer trees: exactly the
// links annotated p2c (every such link belongs to its provider's tree,
// and every tree edge is such a link).
func UnionGraph(g *topology.Graph, rels *intern.Table) *topology.Graph {
	var keys []asrel.LinkKey
	for _, k := range g.LinkKeys() {
		if r := rels.GetKey(k); r == asrel.P2C || r == asrel.C2P {
			keys = append(keys, k)
		}
	}
	return topology.FromLinks(nil, keys)
}

// Metric is the Figure-2 measurement of one annotated topology.
type Metric struct {
	// Avg is the mean shortest valley-free distance over (root, member)
	// pairs of the customer trees.
	Avg float64
	// Diameter is the longest of those distances.
	Diameter int
	// Pairs is the number of (root, member) pairs measured.
	Pairs int
	// Nodes and Links describe the union-of-customer-trees subgraph.
	Nodes, Links int
}

// MeasureTrees computes the paper's Figure-2 metric: for every root AS,
// the shortest valley-free distance from the root to each member of its
// customer tree, aggregated over all (root, member) pairs — Avg is the
// paper's "average shortest path", Diameter its "diameter" of the IPv6
// AS customer trees. Distances are measured in the full annotated
// graph, so a root may reach a deep cone member over a shorter up-down
// detour than its own p2c chain. The edges are annotated once, and each
// root costs one cone walk and one valley-free BFS on arrays.
//
// With maxRoots > 0, roots are sampled deterministically (every
// ceil(n/max)-th node in ASN order); pass 0 to measure every root.
func MeasureTrees(g *topology.Graph, rels *intern.Table, maxRoots int) Metric {
	ug := UnionGraph(g, rels)
	m := Metric{Nodes: ug.NumNodes(), Links: ug.NumLinks()}
	n := g.NumNodes()
	stride := 1
	if maxRoots > 0 && n > maxRoots {
		stride = (n + maxRoots - 1) / maxRoots
	}
	w := g.Walk(rels)
	var sum int64
	for root := int32(0); int(root) < n; root += int32(stride) {
		cone := w.Cone(root)
		if len(cone) == 0 {
			continue
		}
		w.ValleyFree(root, false)
		for _, member := range cone {
			// The p2c chain that put member in the cone is itself a
			// valley-free path, so every member is reached.
			d := w.Dist(member)
			sum += int64(d)
			m.Pairs++
			m.Diameter = max(m.Diameter, d)
		}
	}
	if m.Pairs > 0 {
		m.Avg = float64(sum) / float64(m.Pairs)
	}
	return m
}

// Correction is one relationship fix applied during the sweep.
type Correction struct {
	Key asrel.LinkKey
	// Rel is the corrected relationship, Lo→Hi oriented.
	Rel asrel.Rel
	// Visibility orders the sweep (descending) — the number of observed
	// paths that traverse the link.
	Visibility int
}

// SweepPoint is one step of the Figure-2 series.
type SweepPoint struct {
	// Corrected is how many corrections have been applied (0 = the
	// mis-inferred baseline).
	Corrected int
	Metric    Metric
}

// Sweep reproduces Figure 2: starting from the base (mis-inferred)
// annotation, corrections are applied cumulatively in descending
// visibility order, measuring the customer-tree metric (MeasureTrees)
// at every step. The base table is not modified: the corrections go
// into a working copy, frozen once per step for measuring.
func Sweep(g *topology.Graph, base *asrel.Table, corrections []Correction, maxSources int) []SweepPoint {
	ordered := append([]Correction(nil), corrections...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Visibility != ordered[j].Visibility {
			return ordered[i].Visibility > ordered[j].Visibility
		}
		ki, kj := ordered[i].Key, ordered[j].Key
		if ki.Lo != kj.Lo {
			return ki.Lo < kj.Lo
		}
		return ki.Hi < kj.Hi
	})
	work := base.Clone()
	out := make([]SweepPoint, 0, len(ordered)+1)
	out = append(out, SweepPoint{Corrected: 0, Metric: MeasureTrees(g, intern.FromTable(work), maxSources)})
	for i, c := range ordered {
		work.SetKey(c.Key, c.Rel)
		out = append(out, SweepPoint{Corrected: i + 1, Metric: MeasureTrees(g, intern.FromTable(work), maxSources)})
	}
	return out
}
