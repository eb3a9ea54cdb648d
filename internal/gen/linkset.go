package gen

import (
	"cmp"
	"slices"

	"hybridrel/internal/asrel"
	"hybridrel/internal/topology"
)

// linkSet is one plane's mutable adjacency while Build plants links.
// Neighbours stay in insertion order: the planting steps read them in
// that order (related), so the generated worlds depend on it. Build
// freezes each plane into a topology.Graph once planting is done.
type linkSet struct {
	adj   map[asrel.ASN][]asrel.ASN
	links map[asrel.LinkKey]struct{}
}

func newLinkSet() *linkSet {
	return &linkSet{
		adj:   make(map[asrel.ASN][]asrel.ASN),
		links: make(map[asrel.LinkKey]struct{}),
	}
}

// add inserts the undirected link {a, b}, ignoring self-links and
// duplicates. It reports whether the link was newly added.
func (s *linkSet) add(a, b asrel.ASN) bool {
	if a == b {
		return false
	}
	k := asrel.Key(a, b)
	if _, dup := s.links[k]; dup {
		return false
	}
	s.links[k] = struct{}{}
	s.adj[a] = append(s.adj[a], b)
	s.adj[b] = append(s.adj[b], a)
	return true
}

// addNode ensures the AS exists even if isolated.
func (s *linkSet) addNode(a asrel.ASN) {
	if _, ok := s.adj[a]; !ok {
		s.adj[a] = nil
	}
}

func (s *linkSet) has(a, b asrel.ASN) bool {
	_, ok := s.links[asrel.Key(a, b)]
	return ok
}

func (s *linkSet) degree(a asrel.ASN) int { return len(s.adj[a]) }

// keys returns every link in canonical ascending order.
func (s *linkSet) keys() []asrel.LinkKey {
	out := make([]asrel.LinkKey, 0, len(s.links))
	for k := range s.links {
		out = append(out, k)
	}
	slices.SortFunc(out, func(x, y asrel.LinkKey) int {
		return cmp.Or(cmp.Compare(x.Lo, y.Lo), cmp.Compare(x.Hi, y.Hi))
	})
	return out
}

// freeze builds the plane's immutable graph, isolated nodes included.
func (s *linkSet) freeze() *topology.Graph {
	nodes := make([]asrel.ASN, 0, len(s.adj))
	for a := range s.adj {
		nodes = append(nodes, a)
	}
	return topology.FromLinks(nodes, s.keys())
}

// related returns a's neighbours in the af plane whose planted
// relationship (a toward the neighbour) is want, in adjacency order.
// The builder asks this between plantings, so it reads the mutable
// truth table directly instead of freezing a copy per question.
func (b *builder) related(af asrel.AF, a asrel.ASN, want asrel.Rel) []asrel.ASN {
	s, truth := b.g4, b.in.Truth4
	if af == asrel.IPv6 {
		s, truth = b.g6, b.in.Truth6
	}
	var out []asrel.ASN
	for _, n := range s.adj[a] {
		if truth.Get(a, n) == want {
			out = append(out, n)
		}
	}
	return out
}

// dualStackLinks is Internet.DualStackLinks over the planes as planted
// so far.
func (b *builder) dualStackLinks() []asrel.LinkKey {
	var out []asrel.LinkKey
	for _, k := range b.g6.keys() {
		if b.g4.has(k.Lo, k.Hi) {
			out = append(out, k)
		}
	}
	return out
}
