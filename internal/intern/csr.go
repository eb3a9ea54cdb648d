package intern

import (
	"slices"
	"sort"

	"hybridrel/internal/asrel"
)

// CSR is a compressed-sparse-row adjacency over interned node indexes:
// nodes are renumbered into [0, n) in ascending ASN order and each
// node's neighbors occupy one contiguous, sorted run of Nbr. Traversals
// (BFS, cones, valley walks) run on int32 arrays with no map probes and
// no per-node allocation. A CSR is immutable and safe for concurrent
// readers.
type CSR struct {
	// ASNs maps node index → AS number, ascending.
	ASNs []asrel.ASN
	// Off holds n+1 offsets into Nbr; node i's neighbors are
	// Nbr[Off[i]:Off[i+1]], sorted ascending.
	Off []int32
	// Nbr is the concatenated neighbor index array.
	Nbr []int32
}

// CSRFromAdj freezes an adjacency into CSR form. nodes may arrive in
// any order and may include isolated nodes; neighbors returns the
// adjacency of one node (any order, no duplicates). Node indexes are
// assigned by an Interner over the sorted node list, so renumbering
// every edge endpoint is one hash probe instead of a binary search.
func CSRFromAdj(nodes []asrel.ASN, neighbors func(asrel.ASN) []asrel.ASN) *CSR {
	asns := append([]asrel.ASN(nil), nodes...)
	slices.Sort(asns)
	ids := NewInterner()
	for _, a := range asns {
		ids.Intern(a)
	}
	c := &CSR{ASNs: asns, Off: make([]int32, len(asns)+1)}
	for i, a := range asns {
		c.Off[i+1] = c.Off[i] + int32(len(neighbors(a)))
	}
	c.Nbr = make([]int32, c.Off[len(asns)])
	for i, a := range asns {
		row := c.Nbr[c.Off[i]:c.Off[i]:c.Off[i+1]]
		for _, n := range neighbors(a) {
			id, _ := ids.Lookup(n)
			row = append(row, int32(id))
		}
		// Deterministic neighbor order regardless of insertion history.
		sort.Slice(row, func(x, y int) bool { return row[x] < row[y] })
	}
	return c
}

// NumNodes returns the node count.
func (c *CSR) NumNodes() int { return len(c.ASNs) }

// Index returns the node index of a via binary search over the sorted
// ASN array — the interned ID lookup, without a map.
func (c *CSR) Index(a asrel.ASN) (int32, bool) {
	i, ok := slices.BinarySearch(c.ASNs, a)
	return int32(i), ok
}

// Degree returns the neighbor count of node i.
func (c *CSR) Degree(i int32) int { return int(c.Off[i+1] - c.Off[i]) }

// Neighbors returns node i's neighbor indexes, sorted ascending. The
// slice aliases the CSR and must not be modified.
func (c *CSR) Neighbors(i int32) []int32 { return c.Nbr[c.Off[i]:c.Off[i+1]] }

// EdgeRels annotates every directed CSR edge with its relationship
// under t, aligned with Nbr: the value at position p is the
// relationship of ASNs[i] toward ASNs[Nbr[p]] for the row containing p.
// Computing this once per (graph, table) pair turns the per-edge
// lookup of relationship-aware traversals into an array load.
//
// The annotation is one cursor sweep over t, not a search per edge:
// taken row by row, the edges toward higher-numbered neighbours visit
// their canonical keys in ascending order. Each such edge also fills
// its reverse, which sits at the next unfilled lower-neighbour slot of
// the other row — rows are sorted, and their lower neighbours are
// reached in ascending order too.
func (c *CSR) EdgeRels(t *Table) []asrel.Rel {
	rels := make([]asrel.Rel, len(c.Nbr))
	low := append([]int32(nil), c.Off[:len(c.ASNs)]...)
	k := 0
	for i, a := range c.ASNs {
		for p := c.Off[i]; p < c.Off[i+1]; p++ {
			j := c.Nbr[p]
			if int(j) < i {
				continue
			}
			u := Pack(asrel.LinkKey{Lo: a, Hi: c.ASNs[j]})
			for k < len(t.keys) && t.keys[k] < u {
				k++
			}
			r := asrel.Unknown
			if k < len(t.keys) && t.keys[k] == u {
				r = t.rels[k]
			}
			rels[p] = r
			rels[low[j]] = r.Invert()
			low[j]++
		}
	}
	return rels
}
