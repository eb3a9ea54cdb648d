// Package gao reimplements the classic degree-based Type-of-Relationship
// algorithm of Gao (IEEE/ACM ToN 2001), the ancestor of the heuristics
// the paper critiques. For each AS path the highest-degree AS is taken
// as the top provider; edges on the vantage side of the top are
// annotated customer→provider, edges on the origin side
// provider→customer. Aggregated annotations yield transit relationships
// (conflicting balanced annotations yield siblings), and links adjacent
// to a path top whose endpoint degrees are within a ratio R are
// classified as peering — the step that systematically turns large-AS
// transit links (the paper's H1 hybrids) into false peerings.
//
// Simplifications against the published algorithm are documented in
// DESIGN.md; the structure (degree split, annotation voting, top-adjacent
// peering pass) follows the paper.
package gao

import (
	"hybridrel/internal/asrel"
	"hybridrel/internal/dataset"
	"hybridrel/internal/infer"
	"hybridrel/internal/intern"
)

// Config tunes the heuristic.
type Config struct {
	// DegreeRatio is Gao's R: a top-adjacent link is a peering candidate
	// when max(deg)/min(deg) ≤ R. The paper used 60.
	DegreeRatio float64
	// MinDegree is the floor both endpoints must reach before the
	// peering pass may fire; it keeps single-homed stub uplinks (degree
	// 1-2) out of the peering class.
	MinDegree int
}

// DefaultConfig matches the published parameterization.
func DefaultConfig() Config { return Config{DegreeRatio: 60, MinDegree: 3} }

// Result is the inference outcome.
type Result struct {
	Table *intern.Table
	// Siblings counts links resolved as s2s from balanced conflicts.
	Siblings int
	// Peerings counts links resolved by the peering pass.
	Peerings int
}

// Infer runs the algorithm over the observed paths.
func Infer(paths []*dataset.PathObs, cfg Config) *Result {
	if cfg.DegreeRatio <= 0 {
		cfg.DegreeRatio = 60
	}
	if cfg.MinDegree <= 0 {
		cfg.MinDegree = 3
	}
	deg := degrees(paths)

	votes := infer.NewVoteTable()
	notPeer := make(map[asrel.LinkKey]bool)
	topAdj := make(map[asrel.LinkKey]bool)
	for _, p := range paths {
		if len(p.Path) < 2 {
			continue
		}
		j := topIndex(p.Path, deg)
		for i := 0; i+1 < len(p.Path); i++ {
			k := asrel.Key(p.Path[i], p.Path[i+1])
			if i < j {
				// Vantage side: the route descended toward the vantage.
				votes.Add(p.Path[i], p.Path[i+1], asrel.C2P)
			} else {
				// Origin side: the route climbed away from the origin.
				votes.Add(p.Path[i], p.Path[i+1], asrel.P2C)
			}
			if i == j-1 || i == j {
				topAdj[k] = true
			} else {
				notPeer[k] = true
			}
		}
	}

	res := &Result{}
	var b intern.TableBuilder
	keys := votes.Keys()
	b.Grow(len(keys))
	for _, k := range keys {
		v := votes.Get(k)
		var r asrel.Rel
		switch {
		case topAdj[k] && !notPeer[k] &&
			deg[k.Lo] >= cfg.MinDegree && deg[k.Hi] >= cfg.MinDegree &&
			ratioOK(deg[k.Lo], deg[k.Hi], cfg.DegreeRatio):
			r = asrel.P2P
			res.Peerings++
		case v.P2C > v.C2P:
			r = asrel.P2C
		case v.C2P > v.P2C:
			r = asrel.C2P
		case v.P2C > 0:
			// Balanced conflicting transit annotations: sibling.
			r = asrel.S2S
			res.Siblings++
		default:
			continue
		}
		// votes.Keys is in canonical order, so Append cannot fail.
		_ = b.Append(k, r)
	}
	res.Table = b.Table()
	return res
}

// degrees computes observed AS degrees (distinct neighbors) from paths.
func degrees(paths []*dataset.PathObs) map[asrel.ASN]int {
	nbrs := make(map[asrel.ASN]map[asrel.ASN]struct{})
	for _, p := range paths {
		for i := 0; i+1 < len(p.Path); i++ {
			a, b := p.Path[i], p.Path[i+1]
			if nbrs[a] == nil {
				nbrs[a] = make(map[asrel.ASN]struct{})
			}
			if nbrs[b] == nil {
				nbrs[b] = make(map[asrel.ASN]struct{})
			}
			nbrs[a][b] = struct{}{}
			nbrs[b][a] = struct{}{}
		}
	}
	deg := make(map[asrel.ASN]int, len(nbrs))
	for a, n := range nbrs {
		deg[a] = len(n)
	}
	return deg
}

// topIndex returns the position of the highest-degree AS (first
// occurrence on ties).
func topIndex(path []asrel.ASN, deg map[asrel.ASN]int) int {
	best, bestDeg := 0, -1
	for i, a := range path {
		if d := deg[a]; d > bestDeg {
			best, bestDeg = i, d
		}
	}
	return best
}

func ratioOK(a, b int, r float64) bool {
	if a <= 0 || b <= 0 {
		return false
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return float64(hi) <= r*float64(lo)
}
