// Package topology provides the AS-level graph substrate: an immutable
// undirected graph of AS adjacencies with relationship-aware
// operations — customer cones, plain BFS, and shortest *valley-free*
// path computations on a two-state product graph.
//
// A Graph holds only adjacency; relationships live in an intern.Table so
// the same physical topology can be annotated differently per address
// family or per inference algorithm, which is exactly what the hybrid
// relationship analysis needs. A traversal resolves every edge's
// relationship once per table (EdgeRels, Walk) and then runs on arrays.
package topology

import (
	"slices"

	"hybridrel/internal/asrel"
	"hybridrel/internal/intern"
)

// Graph is an undirected AS-level topology in compressed-sparse-row
// form: nodes are numbered [0, n) in ascending ASN order and node i's
// neighbours occupy the sorted run Targets()[Offsets()[i]:Offsets()[i+1]].
// Build one with FromLinks; a Graph is immutable and safe for
// concurrent readers.
type Graph struct {
	asns []asrel.ASN // node index → ASN, ascending
	off  []int32     // n+1 row offsets into nbr
	nbr  []int32     // neighbour indexes, each row ascending
}

// FromLinks builds the graph of the undirected links plus the given
// nodes, which may include isolated ASes. Neither slice is modified,
// and both may arrive in any order: self-links are dropped, duplicates
// (in either orientation) are removed and the rest is sorted. Rows are
// filled by counting over the sorted canonical keys, so each row comes
// out sorted with no per-row sort.
func FromLinks(nodes []asrel.ASN, links []asrel.LinkKey) *Graph {
	keys := make([]uint64, 0, len(links))
	for _, k := range links {
		if k.Lo != k.Hi {
			keys = append(keys, intern.Pack(asrel.Key(k.Lo, k.Hi)))
		}
	}
	if !slices.IsSorted(keys) {
		intern.SortPacked(keys)
	}
	keys = slices.Compact(keys)

	ends := make([]asrel.ASN, 0, len(nodes)+2*len(keys))
	ends = append(ends, nodes...)
	for _, u := range keys {
		k := intern.Unpack(u)
		ends = append(ends, k.Lo, k.Hi)
	}
	slices.Sort(ends)
	g := &Graph{asns: slices.Clone(slices.Compact(ends))}

	// Count degrees, then place every key at the next free slot of both
	// rows. Keys ascend by (Lo, Hi), so row r receives its lower
	// neighbours (keys {x, r}, x < r) in ascending order before any of
	// its higher ones (keys {r, y}), also ascending: every row is sorted.
	n := len(g.asns)
	g.off = make([]int32, n+1)
	idx := make([]int32, 2*len(keys))
	for i, u := range keys {
		k := intern.Unpack(u)
		lo, _ := g.Index(k.Lo)
		hi, _ := g.Index(k.Hi)
		idx[2*i], idx[2*i+1] = lo, hi
		g.off[lo+1]++
		g.off[hi+1]++
	}
	for i := 0; i < n; i++ {
		g.off[i+1] += g.off[i]
	}
	g.nbr = make([]int32, g.off[n])
	next := slices.Clone(g.off[:n])
	for i := 0; i < len(idx); i += 2 {
		lo, hi := idx[i], idx[i+1]
		g.nbr[next[lo]] = hi
		next[lo]++
		g.nbr[next[hi]] = lo
		next[hi]++
	}
	return g
}

// NumNodes returns the number of ASes.
func (g *Graph) NumNodes() int { return len(g.asns) }

// NumLinks returns the number of undirected links.
func (g *Graph) NumLinks() int { return len(g.nbr) / 2 }

// Nodes returns all ASes in ascending ASN order; node index i is
// Nodes()[i]. The slice is owned by the graph and must not be modified.
func (g *Graph) Nodes() []asrel.ASN { return g.asns }

// Offsets returns the n+1 row offsets of the CSR: node i's neighbours
// are Targets()[Offsets()[i]:Offsets()[i+1]]. The slice is owned by the
// graph and must not be modified.
func (g *Graph) Offsets() []int32 { return g.off }

// Targets returns the concatenated neighbour index rows, each sorted
// ascending; EdgeRels aligns with it. The slice is owned by the graph
// and must not be modified.
func (g *Graph) Targets() []int32 { return g.nbr }

// Index returns the node index of a by binary search over the sorted
// ASN array.
func (g *Graph) Index(a asrel.ASN) (int32, bool) {
	i, ok := slices.BinarySearch(g.asns, a)
	return int32(i), ok
}

// row returns node i's neighbour indexes.
func (g *Graph) row(i int32) []int32 { return g.nbr[g.off[i]:g.off[i+1]] }

// HasLink reports whether the undirected link {a, b} exists.
func (g *Graph) HasLink(a, b asrel.ASN) bool {
	i, okA := g.Index(a)
	j, okB := g.Index(b)
	if !okA || !okB {
		return false
	}
	_, ok := slices.BinarySearch(g.row(i), j)
	return ok
}

// Degree returns the number of neighbours of a (0 when absent).
func (g *Graph) Degree(a asrel.ASN) int {
	i, ok := g.Index(a)
	if !ok {
		return 0
	}
	return len(g.row(i))
}

// LinkKeys returns all links in canonical ascending order: row by row,
// the neighbours above the row's own index.
func (g *Graph) LinkKeys() []asrel.LinkKey {
	out := make([]asrel.LinkKey, 0, g.NumLinks())
	for i, a := range g.asns {
		for _, j := range g.row(int32(i)) {
			if int(j) > i {
				out = append(out, asrel.LinkKey{Lo: a, Hi: g.asns[j]})
			}
		}
	}
	return out
}

// EdgeRels annotates every directed edge with its relationship under
// t, aligned with Targets: the value at position p is the relationship
// of node i toward node Targets()[p] for the row i containing p.
// Computing this once per (graph, table) pair turns the per-edge
// lookup of relationship-aware traversals into an array load.
//
// The annotation is one cursor sweep over t, not a search per edge:
// taken row by row, the edges toward higher-numbered neighbours visit
// their canonical keys in ascending order. Each such edge also fills
// its reverse, which sits at the next unfilled lower-neighbour slot of
// the other row — rows are sorted, and their lower neighbours are
// reached in ascending order too.
func (g *Graph) EdgeRels(t *intern.Table) []asrel.Rel {
	keys, trels := t.PackedKeys(), t.Rels()
	rels := make([]asrel.Rel, len(g.nbr))
	low := slices.Clone(g.off[:len(g.asns)])
	k := 0
	for i, a := range g.asns {
		for p := g.off[i]; p < g.off[i+1]; p++ {
			j := g.nbr[p]
			if int(j) < i {
				continue
			}
			u := intern.Pack(asrel.LinkKey{Lo: a, Hi: g.asns[j]})
			for k < len(keys) && keys[k] < u {
				k++
			}
			r := asrel.Unknown
			if k < len(keys) && keys[k] == u {
				r = trels[k]
			}
			rels[p] = r
			rels[low[j]] = r.Invert()
			low[j]++
		}
	}
	return rels
}

// CustomerCone returns the set of ASes reachable from root by repeatedly
// descending p2c links (the "customer tree" of the paper's Figure 1),
// excluding the root itself.
func (g *Graph) CustomerCone(t *intern.Table, root asrel.ASN) map[asrel.ASN]bool {
	cone := make(map[asrel.ASN]bool)
	r, ok := g.Index(root)
	if !ok {
		return cone
	}
	for _, m := range g.Walk(t).Cone(r) {
		cone[g.asns[m]] = true
	}
	return cone
}

// BFSDist returns hop distances from src to every reachable AS ignoring
// relationship annotations. The BFS runs on an int32 distance array;
// only the result map is allocated per call.
func (g *Graph) BFSDist(src asrel.ASN) map[asrel.ASN]int {
	s, ok := g.Index(src)
	if !ok {
		return map[asrel.ASN]int{}
	}
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := make([]int32, 0, 64)
	queue = append(queue, s)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.row(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	out := make(map[asrel.ASN]int, len(queue))
	for i, d := range dist {
		if d >= 0 {
			out[g.asns[i]] = int(d)
		}
	}
	return out
}
