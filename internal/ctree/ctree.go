// Package ctree implements the paper's "customer tree" metric (§4,
// Figures 1 and 2): the set of ASes a root can reach through p2c links
// only, the union of all customer trees as a subgraph, the average
// shortest valley-free path length and diameter of that union, and the
// Figure-2 correction sweep in which mis-inferred hybrid relationships
// are fixed one at a time in order of path visibility.
package ctree

import (
	"sort"

	"hybridrel/internal/asrel"
	"hybridrel/internal/intern"
	"hybridrel/internal/topology"
)

// Tree returns the customer tree of root under rels: every AS reachable
// from root by descending p2c links, excluding the root.
func Tree(g *topology.Graph, rels *intern.Table, root asrel.ASN) map[asrel.ASN]bool {
	return g.CustomerCone(rels, root)
}

// TreeSize returns the number of ASes in root's customer tree.
func TreeSize(g *topology.Graph, rels *intern.Table, root asrel.ASN) int {
	return len(Tree(g, rels, root))
}

// UnionGraph materializes the union of all customer trees: exactly the
// links annotated p2c (every such link belongs to its provider's tree,
// and every tree edge is such a link), with their annotations.
func UnionGraph(g *topology.Graph, rels *intern.Table) (*topology.Graph, *intern.Table) {
	ug := topology.New()
	var ut intern.TableBuilder
	for _, k := range g.LinkKeys() {
		r := rels.GetKey(k)
		if r == asrel.P2C || r == asrel.C2P {
			ug.AddLink(k.Lo, k.Hi)
			// LinkKeys is in canonical order, so Append cannot fail.
			_ = ut.Append(k, r)
		}
	}
	return ug, ut.Table()
}

// Metric is the Figure-2 measurement of one annotated topology.
type Metric struct {
	// Avg is the mean shortest valley-free path length over connected
	// ordered pairs of the union-of-customer-trees subgraph.
	Avg float64
	// Diameter is the longest shortest valley-free path in the subgraph.
	Diameter int
	// Pairs is the number of connected ordered pairs measured.
	Pairs int
	// Nodes and Links describe the subgraph itself.
	Nodes, Links int
}

// MeasureUnion computes the Metric of the union-of-customer-trees
// subgraph of (g, rels). With maxSources > 0 the valley-free distances
// are computed from a deterministic sample of sources (every ceil(n/max)-th
// node in ASN order), which scales the metric to large graphs; pass 0
// for the exact all-pairs measurement.
func MeasureUnion(g *topology.Graph, rels *intern.Table, maxSources int) Metric {
	ug, ut := UnionGraph(g, rels)
	m := Metric{Nodes: ug.NumNodes(), Links: ug.NumLinks()}
	if ug.NumNodes() == 0 {
		return m
	}
	var sources []asrel.ASN
	if maxSources > 0 && ug.NumNodes() > maxSources {
		nodes := ug.Nodes()
		stride := (len(nodes) + maxSources - 1) / maxSources
		for i := 0; i < len(nodes); i += stride {
			sources = append(sources, nodes[i])
		}
	}
	st := ug.ValleyFreeStats(ut, sources)
	m.Avg = st.Avg
	m.Diameter = st.Diameter
	m.Pairs = st.Pairs
	return m
}

// MeasureTrees computes the paper's Figure-2 metric: for every root AS,
// the shortest valley-free distance from the root to each member of its
// customer tree, aggregated over all (root, member) pairs — Avg is the
// paper's "average shortest path", Diameter its "diameter" of the IPv6
// AS customer trees. Distances are measured in the full annotated
// graph, so a root may reach a deep cone member over a shorter up-down
// detour than its own p2c chain.
//
// With maxRoots > 0, roots are sampled deterministically (every
// ceil(n/max)-th node in ASN order); pass 0 to measure every root.
func MeasureTrees(g *topology.Graph, rels *intern.Table, maxRoots int) Metric {
	ug, _ := UnionGraph(g, rels)
	m := Metric{Nodes: ug.NumNodes(), Links: ug.NumLinks()}
	nodes := g.Nodes()
	stride := 1
	if maxRoots > 0 && len(nodes) > maxRoots {
		stride = (len(nodes) + maxRoots - 1) / maxRoots
	}
	var sum int64
	for i := 0; i < len(nodes); i += stride {
		root := nodes[i]
		cone := g.CustomerCone(rels, root)
		if len(cone) == 0 {
			continue
		}
		dist := g.ValleyFreeDist(rels, root)
		for member := range cone {
			d, ok := dist[member]
			if !ok {
				// Unreachable valley-free despite being in the cone can
				// only happen if the p2c chain itself was cut by a
				// concurrent mutation; the cone walk guarantees a pure
				// descent, so treat as the cone-path upper bound: skip.
				continue
			}
			sum += int64(d)
			m.Pairs++
			if d > m.Diameter {
				m.Diameter = d
			}
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
