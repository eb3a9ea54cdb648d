// Package bgpsim propagates routes over a generated Internet under the
// standard Gao–Rexford export policy, extended with the scoped route
// leaks the paper studies: relaxations that restore reachability across
// the partitioned IPv6 plane, and noise leaks that create ordinary
// valley paths.
//
// The model, per origin AS:
//
//   - every AS selects one best route by class (customer > peer >
//     provider), then shortest AS path, then lowest neighbor ASN;
//   - an AS exports its best route to customers always, and to peers and
//     providers only when the route is customer-learned or self-originated;
//   - a Leak rule (At, Via, To) additionally exports At's best route to
//     To whenever that route was learned from Via.
//
// Propagation runs an improve-only label-correcting loop, which
// terminates because a route can only improve finitely often; at the
// fixed point parent chains are shortest-path trees (stale leak parents
// are guarded by a loop check during path extraction).
//
// Traffic-engineering LocPrf overrides are recorded in the emitted
// attributes (with the matching TE community) but do not influence
// selection; DESIGN.md documents this approximation.
package bgpsim

import (
	"fmt"

	"hybridrel/internal/asrel"
	"hybridrel/internal/gen"
	"hybridrel/internal/intern"
	"hybridrel/internal/topology"
)

// Class is the preference class of a learned route, ascending.
type Class uint8

// Route classes: customer-learned routes (and self-originated ones) are
// preferred over peer-learned over provider-learned.
const (
	ClassNone Class = iota
	ClassProvider
	ClassPeer
	ClassCustomer
)

// String names the class as used in debug output.
func (c Class) String() string {
	switch c {
	case ClassProvider:
		return "provider"
	case ClassPeer:
		return "peer"
	case ClassCustomer:
		return "customer"
	default:
		return "none"
	}
}

// Sim is a propagation engine for one address-family plane of a
// generated Internet. It is not safe for concurrent use; create one per
// goroutine (they share the immutable Internet).
type Sim struct {
	in *gen.Internet
	af asrel.AF

	// g is the plane's frozen graph; off and nbr alias its CSR rows.
	g   *topology.Graph
	off []int32
	nbr []int32
	rel []asrel.Rel // relationship of node u toward nbr entry (u's view)

	// leaks[(at<<32)|via] lists target node indexes.
	leaks map[uint64][]int32

	vantages []int32

	// scratch reused across Propagate calls.
	routes []route
	queue  []int32
	inQ    []bool
}

type route struct {
	class  Class
	dist   int32
	parent int32 // neighbor node index, -1 for the origin itself
}

// New builds a simulator for the given plane. Leak rules are applied
// only in the IPv6 plane, where the generator installs them.
func New(in *gen.Internet, af asrel.AF) *Sim {
	g := in.GraphFor(af)
	s := &Sim{
		in:    in,
		af:    af,
		g:     g,
		off:   g.Offsets(),
		nbr:   g.Targets(),
		rel:   g.EdgeRels(intern.FromTable(in.TruthFor(af))),
		leaks: make(map[uint64][]int32),
	}
	if af == asrel.IPv6 {
		for _, l := range in.Leaks {
			at, okAt := g.Index(l.At)
			via, okVia := g.Index(l.Via)
			to, okTo := g.Index(l.To)
			if okAt && okVia && okTo {
				k := leakKey(at, via)
				s.leaks[k] = append(s.leaks[k], to)
			}
		}
	}
	for _, v := range in.Vantages {
		if i, ok := g.Index(v); ok {
			s.vantages = append(s.vantages, i)
		}
	}
	s.routes = make([]route, g.NumNodes())
	s.inQ = make([]bool, g.NumNodes())
	return s
}

func leakKey(at, via int32) uint64 { return uint64(uint32(at))<<32 | uint64(uint32(via)) }

// NumASes returns the number of ASes present in this plane.
func (s *Sim) NumASes() int { return s.g.NumNodes() }

// Result is the outcome of one Propagate call. It aliases the Sim's
// scratch buffers: it is invalidated by the next Propagate on the same
// Sim.
type Result struct {
	s      *Sim
	origin int32
}

// Propagate computes every AS's best route toward origin. It returns an
// error only when the origin is not part of this plane.
func (s *Sim) Propagate(origin asrel.ASN) (*Result, error) {
	o, ok := s.g.Index(origin)
	if !ok {
		return nil, fmt.Errorf("bgpsim: origin %s not in the %s plane", origin, s.af)
	}
	for i := range s.routes {
		s.routes[i] = route{class: ClassNone, dist: -1, parent: -1}
	}
	s.queue = s.queue[:0]
	s.routes[o] = route{class: ClassCustomer, dist: 0, parent: -1}
	s.push(o)
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		s.inQ[u] = false
		s.relax(u)
	}
	return &Result{s: s, origin: o}, nil
}

func (s *Sim) push(u int32) {
	if !s.inQ[u] {
		s.inQ[u] = true
		s.queue = append(s.queue, u)
	}
}

// relax exports u's current best route along every edge its policy
// allows, improving neighbors' routes.
func (s *Sim) relax(u int32) {
	ru := s.routes[u]
	if ru.class == ClassNone {
		return
	}
	for p := s.off[u]; p < s.off[u+1]; p++ {
		v := s.nbr[p]
		rel := s.rel[p]
		if !s.exportAllowed(ru.class, rel) {
			continue
		}
		s.offer(u, v, recvClass(rel))
	}
	// Scoped leaks: if u's best route came via a leak source, export it
	// to the leak targets regardless of class.
	if ru.parent >= 0 {
		if targets, ok := s.leaks[leakKey(u, ru.parent)]; ok {
			for _, v := range targets {
				s.offer(u, v, s.classAt(v, u))
			}
		}
	}
}

// exportAllowed implements Gao–Rexford: everything goes to customers;
// only customer-learned (or self-originated) routes go to peers and
// providers. Sibling edges exchange everything.
func (s *Sim) exportAllowed(c Class, relToNbr asrel.Rel) bool {
	switch relToNbr {
	case asrel.P2C, asrel.S2S:
		return true
	case asrel.P2P, asrel.C2P:
		return c == ClassCustomer
	default:
		return false
	}
}

// recvClass converts the exporter's edge relationship into the
// receiver's route class: if u sees v as its provider (C2P), then v
// learned the route from its customer u.
func recvClass(relUtoV asrel.Rel) Class {
	switch relUtoV {
	case asrel.C2P:
		return ClassCustomer
	case asrel.P2P:
		return ClassPeer
	case asrel.P2C:
		return ClassProvider
	case asrel.S2S:
		return ClassCustomer
	default:
		return ClassNone
	}
}

// classAt returns the class v assigns to routes learned from u, looking
// up the edge from v's side (used for leak targets).
func (s *Sim) classAt(v, u int32) Class {
	for p := s.off[v]; p < s.off[v+1]; p++ {
		if s.nbr[p] == u {
			switch s.rel[p] {
			case asrel.P2C: // u is v's customer
				return ClassCustomer
			case asrel.P2P:
				return ClassPeer
			case asrel.C2P:
				return ClassProvider
			case asrel.S2S:
				return ClassCustomer
			}
		}
	}
	return ClassNone
}

// offer proposes u's route (+1 hop) to v with the given receive class.
func (s *Sim) offer(u, v int32, c Class) {
	if c == ClassNone {
		return
	}
	cand := route{class: c, dist: s.routes[u].dist + 1, parent: u}
	if s.better(cand, s.routes[v], v) {
		s.routes[v] = cand
		s.push(v)
	}
}

// better implements best-route selection: class, then path length, then
// lowest neighbor ASN.
func (s *Sim) better(a, b route, _ int32) bool {
	if b.class == ClassNone {
		return true
	}
	if a.class != b.class {
		return a.class > b.class
	}
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.parent != b.parent && a.parent >= 0 && b.parent >= 0 {
		return a.parent < b.parent // node indexes ascend with ASN
	}
	return false
}

// Has reports whether asn selected any route to the origin.
func (r *Result) Has(asn asrel.ASN) bool {
	i, ok := r.s.g.Index(asn)
	return ok && r.s.routes[i].class != ClassNone
}

// ClassOf returns the class of asn's best route (ClassNone if it has no
// route).
func (r *Result) ClassOf(asn asrel.ASN) Class {
	i, ok := r.s.g.Index(asn)
	if !ok {
		return ClassNone
	}
	return r.s.routes[i].class
}

// PathTo returns the selected AS path from asn to the origin, asn first.
// It returns nil when asn has no route or the parent chain is degenerate
// (a stale leak loop).
func (r *Result) PathTo(asn asrel.ASN) []asrel.ASN {
	i, ok := r.s.g.Index(asn)
	if !ok || r.s.routes[i].class == ClassNone {
		return nil
	}
	var path []asrel.ASN
	seen := make(map[int32]bool)
	for cur := i; ; {
		if seen[cur] {
			return nil // loop through stale leak parents
		}
		seen[cur] = true
		path = append(path, r.s.g.Nodes()[cur])
		p := r.s.routes[cur].parent
		if p < 0 {
			return path
		}
		cur = p
	}
}

// ReachableCount returns how many ASes (including the origin) selected a
// route.
func (r *Result) ReachableCount() int {
	n := 0
	for i := range r.s.routes {
		if r.s.routes[i].class != ClassNone {
			n++
		}
	}
	return n
}
