package topology

import (
	"hybridrel/internal/asrel"
	"hybridrel/internal/intern"
)

// freeze returns the CSR index of the graph, building it on first use
// after a mutation. Nodes are renumbered into [0, n) in ascending ASN
// order so the heavy traversal methods run on int32 arrays instead of
// maps.
func (g *Graph) freeze() *intern.CSR {
	if g.csr != nil {
		return g.csr
	}
	nodes := make([]asrel.ASN, 0, len(g.adj))
	for a := range g.adj {
		nodes = append(nodes, a)
	}
	g.csr = intern.CSRFromAdj(nodes, func(a asrel.ASN) []asrel.ASN { return g.adj[a] })
	return g.csr
}

// Valley-free BFS states. A valley-free path is an uphill run of c2p
// edges, optionally one p2p edge, then a downhill run of p2c edges
// (Gao 2001). Sibling (s2s) edges are transparent: they preserve the
// current state, matching the usual extension of the valley-free rule.
const (
	stateUp   = 0 // still ascending: c2p edges remain legal
	stateDown = 1 // descending: only p2c (and s2s) edges are legal
)

// vfNext returns the successor states (as a bitmask over {stateUp,
// stateDown}) for traversing the edge u→v with relationship rel while in
// state s. With lenient set, a link of Unknown relationship is treated
// as a peering — the balanced optimistic semantics of the necessity
// test: most unclassified links are peripheral peerings, so alternatives
// may cross one of them at the top of a path but not climb through them
// freely.
func vfNext(s int, rel asrel.Rel, lenient bool) int {
	const (
		upBit   = 1 << stateUp
		downBit = 1 << stateDown
	)
	switch rel {
	case asrel.C2P: // climbing to a provider
		if s == stateUp {
			return upBit
		}
	case asrel.P2P: // the single allowed peering step
		if s == stateUp {
			return downBit
		}
	case asrel.P2C: // descending to a customer
		return downBit
	case asrel.S2S: // siblings are transparent
		return 1 << s
	case asrel.Unknown:
		if lenient && s == stateUp {
			return downBit
		}
	}
	return 0
}

// ValleyFreeDist returns, for every AS reachable from src over
// valley-free paths under t, the minimum valley-free hop distance.
// Links with an Unknown relationship are not traversable.
func (g *Graph) ValleyFreeDist(t *intern.Table, src asrel.ASN) map[asrel.ASN]int {
	return g.vfDist(t, src, false)
}

// ValleyFreeDistLenient is ValleyFreeDist under lenient semantics:
// links with an Unknown relationship act as peerings (the most common
// unclassified type). An AS absent from the lenient result has no
// valley-free path from src even granting the unclassified links their
// benign interpretation — the necessity criterion of the valley-path
// taxonomy.
func (g *Graph) ValleyFreeDistLenient(t *intern.Table, src asrel.ASN) map[asrel.ASN]int {
	return g.vfDist(t, src, true)
}

func (g *Graph) vfDist(t *intern.Table, src asrel.ASN, lenient bool) map[asrel.ASN]int {
	c := g.freeze()
	s, ok := c.Index(src)
	if !ok {
		return map[asrel.ASN]int{}
	}
	dist := vfBFS(c, c.EdgeRels(t), s, nil, lenient)
	out := make(map[asrel.ASN]int)
	n := int32(c.NumNodes())
	for i := int32(0); i < n; i++ {
		d := minState(dist, i, n)
		if d >= 0 {
			out[c.ASNs[i]] = d
		}
	}
	return out
}

// ValleyFreeReachable reports whether dst is reachable from src over a
// valley-free path under t.
func (g *Graph) ValleyFreeReachable(t *intern.Table, src, dst asrel.ASN) bool {
	if src == dst {
		return g.HasNode(src)
	}
	c := g.freeze()
	s, ok := c.Index(src)
	if !ok {
		return false
	}
	d, ok := c.Index(dst)
	if !ok {
		return false
	}
	dist := vfBFS(c, c.EdgeRels(t), s, &d, false)
	return minState(dist, d, int32(c.NumNodes())) >= 0
}

func minState(dist []int32, i, n int32) int {
	a, b := dist[i], dist[n+i]
	switch {
	case a < 0 && b < 0:
		return -1
	case a < 0:
		return int(b)
	case b < 0 || a < b:
		return int(a)
	default:
		return int(b)
	}
}

// vfBFS runs the two-state product-graph BFS from source index s over
// the frozen CSR, with every edge's relationship pre-resolved into rels
// (aligned with c.Nbr, as CSR.EdgeRels produces) — the inner loop is
// pure array traffic, no map probes. The returned slice has 2n entries:
// [0,n) is stateUp distances, [n,2n) is stateDown distances, -1 meaning
// unreached. If stop is non-nil the search terminates early once both
// states of *stop are settled or the frontier empties.
func vfBFS(c *intern.CSR, rels []asrel.Rel, s int32, stop *int32, wildcard bool) []int32 {
	n := int32(c.NumNodes())
	dist := make([]int32, 2*n)
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0 // (s, stateUp)
	queue := make([]int32, 0, 64)
	queue = append(queue, s) // encoded as state*n + node
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		st, u := int(cur/n), cur%n
		du := dist[cur]
		if stop != nil && dist[*stop] >= 0 && dist[n+*stop] >= 0 {
			break
		}
		for p := c.Off[u]; p < c.Off[u+1]; p++ {
			v := c.Nbr[p]
			mask := vfNext(st, rels[p], wildcard)
			for ns := 0; ns <= 1; ns++ {
				if mask&(1<<ns) == 0 {
					continue
				}
				code := int32(ns)*n + v
				if dist[code] >= 0 {
					continue
				}
				dist[code] = du + 1
				queue = append(queue, code)
			}
		}
	}
	return dist
}

// VFStats summarizes all-pairs valley-free distances.
type VFStats struct {
	// Avg is the mean shortest valley-free path length over connected
	// ordered pairs (src ≠ dst).
	Avg float64
	// Diameter is the maximum finite shortest valley-free path length.
	Diameter int
	// Pairs is the number of connected ordered pairs observed.
	Pairs int
}

// ValleyFreeStats computes VFStats from every source in sources (all
// nodes when sources is nil) to all reachable destinations. This is the
// Figure-2 metric engine: run it on the union-of-customer-trees
// subgraph. The edge relationships are resolved once and shared by
// every per-source BFS, so the table lookup cost amortizes across the
// whole sweep.
func (g *Graph) ValleyFreeStats(t *intern.Table, sources []asrel.ASN) VFStats {
	c := g.freeze()
	n := int32(c.NumNodes())
	var srcIdx []int32
	if sources == nil {
		srcIdx = make([]int32, n)
		for i := int32(0); i < n; i++ {
			srcIdx[i] = i
		}
	} else {
		for _, a := range sources {
			if i, ok := c.Index(a); ok {
				srcIdx = append(srcIdx, i)
			}
		}
	}
	rels := c.EdgeRels(t)
	var (
		sum   int64
		pairs int
		diam  int
	)
	for _, s := range srcIdx {
		dist := vfBFS(c, rels, s, nil, false)
		for i := int32(0); i < n; i++ {
			if i == s {
				continue
			}
			d := minState(dist, i, n)
			if d < 0 {
				continue
			}
			sum += int64(d)
			pairs++
			if d > diam {
				diam = d
			}
		}
	}
	st := VFStats{Diameter: diam, Pairs: pairs}
	if pairs > 0 {
		st.Avg = float64(sum) / float64(pairs)
	}
	return st
}
