package topology

import (
	"hybridrel/internal/asrel"
	"hybridrel/internal/intern"
)

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

// Walker runs relationship-aware traversals — customer cones and
// valley-free BFS — over one graph whose edges are annotated under one
// table. Walk makes the annotation once; every traversal then reads it
// as an array load per edge. A Walker reuses its scratch across calls,
// so it is not safe for concurrent use: make one per goroutine (the
// Graph itself is shared freely).
type Walker struct {
	g    *Graph
	rels []asrel.Rel // EdgeRels of g under the table

	dist  []int32 // 2n: [0,n) stateUp, [n,2n) stateDown; -1 unreached
	queue []int32
	seen  []bool
	cone  []int32
}

// Walk annotates g's edges under t for a series of traversals.
func (g *Graph) Walk(t *intern.Table) *Walker {
	return &Walker{g: g, rels: g.EdgeRels(t)}
}

// Cone returns the node indexes of root's customer cone: every node
// reachable from root by descending p2c links, excluding root. The
// slice is reused by the next Cone call.
func (w *Walker) Cone(root int32) []int32 {
	g := w.g
	if w.seen == nil {
		w.seen = make([]bool, g.NumNodes())
	}
	w.seen[root] = true
	stack := append(w.queue[:0], root)
	members := w.cone[:0]
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for p := g.off[u]; p < g.off[u+1]; p++ {
			v := g.nbr[p]
			if !w.seen[v] && w.rels[p] == asrel.P2C {
				w.seen[v] = true
				members = append(members, v)
				stack = append(stack, v)
			}
		}
	}
	w.seen[root] = false
	for _, m := range members {
		w.seen[m] = false
	}
	w.queue, w.cone = stack, members
	return members
}

// ValleyFree runs the two-state product-graph BFS from node index s;
// Dist then reads the result. Links of Unknown relationship are not
// traversable, or act as peerings when lenient is set. An AS left
// unreached under lenient semantics has no valley-free path from s even
// granting the unclassified links their benign interpretation — the
// necessity criterion of the valley-path taxonomy.
func (w *Walker) ValleyFree(s int32, lenient bool) {
	g := w.g
	n := int32(g.NumNodes())
	if w.dist == nil {
		w.dist = make([]int32, 2*n)
	}
	dist := w.dist
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0                     // (s, stateUp)
	queue := append(w.queue[:0], s) // encoded as state*n + node
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		st, u := int(cur/n), cur%n
		du := dist[cur]
		for p := g.off[u]; p < g.off[u+1]; p++ {
			mask := vfNext(st, w.rels[p], lenient)
			for ns := int32(0); ns <= 1; ns++ {
				if mask&(1<<ns) == 0 {
					continue
				}
				code := ns*n + g.nbr[p]
				if dist[code] >= 0 {
					continue
				}
				dist[code] = du + 1
				queue = append(queue, code)
			}
		}
	}
	w.queue = queue
}

// Dist returns the shortest valley-free hop distance to node i found by
// the last ValleyFree call, or -1 when i was not reached.
func (w *Walker) Dist(i int32) int {
	a, b := w.dist[i], w.dist[int32(w.g.NumNodes())+i]
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

// ValleyFreeDist returns, for every AS reachable from src over
// valley-free paths under t, the minimum valley-free hop distance.
// Links with an Unknown relationship are not traversable.
func (g *Graph) ValleyFreeDist(t *intern.Table, src asrel.ASN) map[asrel.ASN]int {
	out := make(map[asrel.ASN]int)
	s, ok := g.Index(src)
	if !ok {
		return out
	}
	w := g.Walk(t)
	w.ValleyFree(s, false)
	for i, a := range g.asns {
		if d := w.Dist(int32(i)); d >= 0 {
			out[a] = d
		}
	}
	return out
}
