// Package topology provides the AS-level graph substrate: an undirected
// multigraph of AS adjacencies with relationship-aware operations —
// customer cones, plain BFS, and shortest *valley-free* path
// computations on a two-state product graph.
//
// A Graph holds only adjacency; relationships live in an intern.Table so
// the same physical topology can be annotated differently per address
// family or per inference algorithm, which is exactly what the hybrid
// relationship analysis needs.
package topology

import (
	"sort"

	"hybridrel/internal/asrel"
	"hybridrel/internal/intern"
)

// Graph is an undirected AS-level topology. The zero value is not usable;
// construct with New. Graphs may be mutated with AddLink at any time;
// heavy query methods freeze an internal CSR index lazily and invalidate
// it on mutation.
type Graph struct {
	adj   map[asrel.ASN][]asrel.ASN
	links map[asrel.LinkKey]struct{}
	csr   *intern.CSR // lazily built; nil when dirty
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		adj:   make(map[asrel.ASN][]asrel.ASN),
		links: make(map[asrel.LinkKey]struct{}),
	}
}

// AddLink inserts the undirected link {a, b}. Self-links and duplicates
// are ignored. It reports whether the link was newly added.
func (g *Graph) AddLink(a, b asrel.ASN) bool {
	if a == b {
		return false
	}
	k := asrel.Key(a, b)
	if _, dup := g.links[k]; dup {
		return false
	}
	g.links[k] = struct{}{}
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
	g.csr = nil
	return true
}

// AddNode ensures the AS exists in the graph even if isolated.
func (g *Graph) AddNode(a asrel.ASN) {
	if _, ok := g.adj[a]; !ok {
		g.adj[a] = nil
		g.csr = nil
	}
}

// HasLink reports whether the undirected link {a, b} exists.
func (g *Graph) HasLink(a, b asrel.ASN) bool {
	_, ok := g.links[asrel.Key(a, b)]
	return ok
}

// HasNode reports whether the AS is present.
func (g *Graph) HasNode(a asrel.ASN) bool {
	_, ok := g.adj[a]
	return ok
}

// NumNodes returns the number of ASes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumLinks returns the number of undirected links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Nodes returns all ASes in ascending ASN order.
func (g *Graph) Nodes() []asrel.ASN {
	out := make([]asrel.ASN, 0, len(g.adj))
	for a := range g.adj {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LinkKeys returns all links in canonical ascending order.
func (g *Graph) LinkKeys() []asrel.LinkKey {
	out := make([]asrel.LinkKey, 0, len(g.links))
	for k := range g.links {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Lo != out[j].Lo {
			return out[i].Lo < out[j].Lo
		}
		return out[i].Hi < out[j].Hi
	})
	return out
}

// Neighbors returns the adjacency list of a in insertion order. The
// returned slice is owned by the graph and must not be modified.
func (g *Graph) Neighbors(a asrel.ASN) []asrel.ASN { return g.adj[a] }

// Degree returns the number of neighbors of a.
func (g *Graph) Degree(a asrel.ASN) int { return len(g.adj[a]) }

// CustomerCone returns the set of ASes reachable from root by repeatedly
// descending p2c links (the "customer tree" of the paper's Figure 1),
// excluding the root itself. The walk runs on the frozen CSR index with
// an int32 stack and a visited bitmap instead of map probes.
func (g *Graph) CustomerCone(t *intern.Table, root asrel.ASN) map[asrel.ASN]bool {
	cone := make(map[asrel.ASN]bool)
	c := g.freeze()
	r, ok := c.Index(root)
	if !ok {
		return cone
	}
	visited := make([]bool, c.NumNodes())
	visited[r] = true
	stack := []int32{r}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ua := c.ASNs[u]
		for _, v := range c.Neighbors(u) {
			if !visited[v] && t.Get(ua, c.ASNs[v]) == asrel.P2C {
				visited[v] = true
				cone[c.ASNs[v]] = true
				stack = append(stack, v)
			}
		}
	}
	return cone
}

// BFSDist returns hop distances from src to every reachable AS ignoring
// relationship annotations. The BFS runs on the frozen CSR with an
// int32 distance array; only the result map is allocated per call.
func (g *Graph) BFSDist(src asrel.ASN) map[asrel.ASN]int {
	c := g.freeze()
	s, ok := c.Index(src)
	if !ok {
		return map[asrel.ASN]int{}
	}
	dist := make([]int32, c.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := make([]int32, 0, 64)
	queue = append(queue, s)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range c.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	out := make(map[asrel.ASN]int, len(queue))
	for i, d := range dist {
		if d >= 0 {
			out[c.ASNs[i]] = int(d)
		}
	}
	return out
}
