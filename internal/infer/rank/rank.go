// Package rank implements an AS-rank-flavoured Type-of-Relationship
// heuristic in the spirit of CAIDA's inference (Dimitropoulos et al.
// 2007 / Luckie et al. 2013, simplified): a transit-degree metric, a
// greedy clique at the top of the hierarchy, per-path annotation voting
// split at the highest-transit-degree AS, and a conservative peering
// rule for links between large transit networks.
//
// Like every valley-free single-plane heuristic, it cannot represent a
// link whose relationship differs between IPv4 and IPv6 — which is the
// measurement artifact the paper quantifies.
package rank

import (
	"sort"

	"hybridrel/internal/asrel"
	"hybridrel/internal/dataset"
	"hybridrel/internal/infer"
	"hybridrel/internal/intern"
)

// Config tunes the heuristic.
type Config struct {
	// CliqueSize bounds the greedy tier-1 clique.
	CliqueSize int
	// DegreeRatio is the transit-degree similarity bound for the
	// peering rule.
	DegreeRatio float64
	// Dominance is the vote fraction above which a directional transit
	// annotation overrides the peering rule (with at least three votes).
	Dominance float64
}

// DefaultConfig mirrors commonly used parameters.
func DefaultConfig() Config {
	return Config{CliqueSize: 12, DegreeRatio: 12, Dominance: 0.98}
}

// Result is the inference outcome.
type Result struct {
	Table *intern.Table
	// Clique lists the inferred top clique, ascending.
	Clique []asrel.ASN
	// Peerings counts links classified by the peering rule (clique
	// links included).
	Peerings int
}

// Infer runs the heuristic over the observed paths.
func Infer(paths []*dataset.PathObs, cfg Config) *Result {
	if cfg.CliqueSize <= 0 {
		cfg.CliqueSize = 12
	}
	if cfg.DegreeRatio <= 0 {
		cfg.DegreeRatio = 12
	}
	if cfg.Dominance <= 0 || cfg.Dominance > 1 {
		cfg.Dominance = 0.98
	}
	td := transitDegrees(paths)
	adj := adjacency(paths)
	clique := findClique(td, adj, cfg.CliqueSize)
	inClique := make(map[asrel.ASN]bool, len(clique))
	for _, a := range clique {
		inClique[a] = true
	}

	votes := infer.NewVoteTable()
	topAdj := make(map[asrel.LinkKey]bool)
	for _, p := range paths {
		if len(p.Path) < 2 {
			continue
		}
		j := topIndex(p.Path, td)
		for i := 0; i+1 < len(p.Path); i++ {
			if i < j {
				votes.Add(p.Path[i], p.Path[i+1], asrel.C2P)
			} else {
				votes.Add(p.Path[i], p.Path[i+1], asrel.P2C)
			}
			if i == j-1 || i == j {
				topAdj[asrel.Key(p.Path[i], p.Path[i+1])] = true
			}
		}
	}

	res := &Result{Clique: clique}
	var b intern.TableBuilder
	keys := votes.Keys()
	b.Grow(len(keys))
	for _, k := range keys {
		v := votes.Get(k)
		var r asrel.Rel
		switch {
		// Clique-internal links are peerings by construction.
		case inClique[k.Lo] && inClique[k.Hi]:
			r = asrel.P2P
			res.Peerings++
		// Large-large peering rule: similar transit degrees, seen at the
		// top of paths, and no overwhelming directional evidence.
		case topAdj[k] && similar(td[k.Lo], td[k.Hi], cfg.DegreeRatio) &&
			td[k.Lo] > 0 && td[k.Hi] > 0 && !dominant(v, cfg.Dominance):
			r = asrel.P2P
			res.Peerings++
		case v.P2C > v.C2P:
			r = asrel.P2C
		case v.C2P > v.P2C:
			r = asrel.C2P
		// Balanced: the higher transit degree is the provider.
		case td[k.Lo] >= td[k.Hi]:
			r = asrel.P2C
		default:
			r = asrel.C2P
		}
		// votes.Keys is in canonical order, so Append cannot fail.
		_ = b.Append(k, r)
	}
	res.Table = b.Table()
	return res
}

// transitDegrees counts, per AS, the distinct neighbors it appears
// between on paths — ASes it visibly provides transit between.
func transitDegrees(paths []*dataset.PathObs) map[asrel.ASN]int {
	sets := make(map[asrel.ASN]map[asrel.ASN]struct{})
	for _, p := range paths {
		for i := 1; i+1 < len(p.Path); i++ {
			b := p.Path[i]
			if sets[b] == nil {
				sets[b] = make(map[asrel.ASN]struct{})
			}
			sets[b][p.Path[i-1]] = struct{}{}
			sets[b][p.Path[i+1]] = struct{}{}
		}
	}
	out := make(map[asrel.ASN]int, len(sets))
	for a, s := range sets {
		out[a] = len(s)
	}
	return out
}

func adjacency(paths []*dataset.PathObs) map[asrel.LinkKey]bool {
	adj := make(map[asrel.LinkKey]bool)
	for _, p := range paths {
		for i := 0; i+1 < len(p.Path); i++ {
			adj[asrel.Key(p.Path[i], p.Path[i+1])] = true
		}
	}
	return adj
}

// findClique greedily grows a clique from the highest transit degrees.
func findClique(td map[asrel.ASN]int, adj map[asrel.LinkKey]bool, size int) []asrel.ASN {
	cands := make([]asrel.ASN, 0, len(td))
	for a := range td {
		cands = append(cands, a)
	}
	sort.Slice(cands, func(i, j int) bool {
		if td[cands[i]] != td[cands[j]] {
			return td[cands[i]] > td[cands[j]]
		}
		return cands[i] < cands[j]
	})
	var clique []asrel.ASN
	for _, c := range cands {
		if len(clique) >= size {
			break
		}
		ok := true
		for _, m := range clique {
			if !adj[asrel.Key(c, m)] {
				ok = false
				break
			}
		}
		if ok {
			clique = append(clique, c)
		}
	}
	sort.Slice(clique, func(i, j int) bool { return clique[i] < clique[j] })
	return clique
}

func topIndex(path []asrel.ASN, td map[asrel.ASN]int) int {
	best, bestTD := 0, -1
	for i, a := range path {
		if d := td[a]; d > bestTD {
			best, bestTD = i, d
		}
	}
	return best
}

func similar(a, b int, ratio float64) bool {
	if a <= 0 || b <= 0 {
		return false
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return float64(hi) <= ratio*float64(lo)
}

func dominant(v *infer.Votes, threshold float64) bool {
	total := v.P2C + v.C2P
	if total < 3 {
		return false
	}
	max := v.P2C
	if v.C2P > max {
		max = v.C2P
	}
	return float64(max) >= threshold*float64(total)
}
