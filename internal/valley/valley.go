// Package valley validates AS paths against the valley-free rule and
// builds the paper's valley-path taxonomy: which observed paths violate
// the rule, and which of those violations are *necessary* — no
// valley-free alternative exists between their endpoints, so the
// violation is the price of reachability in the partitioned IPv6 plane.
// Classification walks each path under the relationship table; the
// necessity test runs one valley-free BFS per vantage on the immutable
// topology.Graph, with the graph's edges annotated once per table.
package valley

import (
	"iter"
	"slices"

	"hybridrel/internal/asrel"
	"hybridrel/internal/dataset"
	"hybridrel/internal/intern"
	"hybridrel/internal/topology"
)

// Kind classifies one path against the valley-free rule.
type Kind uint8

// Path kinds.
const (
	// KindValleyFree: the path satisfies the rule under the table.
	KindValleyFree Kind = iota
	// KindValley: the path provably violates the rule.
	KindValley
	// KindUnclassified: unclassified links leave the path consistent
	// with some valley-free assignment, so no violation can be proven.
	KindUnclassified
)

// String names the kind as used in reports.
func (k Kind) String() string {
	switch k {
	case KindValleyFree:
		return "valley-free"
	case KindValley:
		return "valley"
	default:
		return "unclassified"
	}
}

// Check classifies a path (vantage first, origin last) under rels. The
// route propagated origin→vantage, so validation walks the path from its
// tail: an uphill run of c2p exports, at most one peering step, then a
// downhill run. Links without a known relationship are wildcards: the
// path is a valley only if no relationship assignment could make it
// valley-free.
func Check(path []asrel.ASN, rels *intern.Table) Kind {
	if len(path) < 3 {
		// One or two ASes can never form a valley.
		if hasUnknown(path, rels) {
			return KindUnclassified
		}
		return KindValleyFree
	}
	// NFA over {up, down}, walking origin → vantage.
	const (
		up   = 1 << 0
		down = 1 << 1
	)
	states := uint8(up)
	sawUnknown := false
	for i := len(path) - 1; i > 0; i-- {
		// The exporter is path[i], the receiver path[i-1].
		rel := rels.Get(path[i], path[i-1])
		var next uint8
		if rel == asrel.Unknown {
			sawUnknown = true
		}
		if states&up != 0 {
			switch rel {
			case asrel.C2P: // receiver is the exporter's provider: climb
				next |= up
			case asrel.P2P:
				next |= down
			case asrel.P2C:
				next |= down
			case asrel.S2S:
				next |= up
			case asrel.Unknown:
				next |= up | down
			}
		}
		if states&down != 0 {
			switch rel {
			case asrel.P2C, asrel.S2S:
				next |= down
			case asrel.Unknown:
				next |= down
			}
		}
		if next == 0 {
			return KindValley
		}
		states = next
	}
	if sawUnknown {
		return KindUnclassified
	}
	return KindValleyFree
}

func hasUnknown(path []asrel.ASN, rels *intern.Table) bool {
	for i := 0; i+1 < len(path); i++ {
		if !rels.Get(path[i], path[i+1]).Known() {
			return true
		}
	}
	return false
}

// Stats tallies the classification of a path corpus.
type Stats struct {
	Total        int
	ValleyFree   int
	Valley       int
	Unclassified int
	// Necessary counts valley paths whose endpoints have no valley-free
	// alternative in the annotated topology (filled by Assess).
	Necessary int
}

// ValleyShare returns Valley / (Valley + ValleyFree): the paper's "13%
// of the IPv6 paths" is computed over classifiable paths.
func (s Stats) ValleyShare() float64 {
	den := s.Valley + s.ValleyFree
	if den == 0 {
		return 0
	}
	return float64(s.Valley) / float64(den)
}

// NecessaryShare returns Necessary / Valley (the paper's 16%).
func (s Stats) NecessaryShare() float64 {
	if s.Valley == 0 {
		return 0
	}
	return float64(s.Necessary) / float64(s.Valley)
}

// Classify checks every path of one walk and returns per-path kinds,
// in walk order, alongside the aggregate statistics.
func Classify(paths iter.Seq[*dataset.PathObs], rels *intern.Table) ([]Kind, Stats) {
	kinds, st, _ := classify(paths, rels)
	return kinds, st
}

// classify is Classify, also returning the (vantage, origin) of every
// valley path, vantage in the high half, so sorting groups each
// vantage's paths into one run.
func classify(paths iter.Seq[*dataset.PathObs], rels *intern.Table) (kinds []Kind, st Stats, ends []uint64) {
	for p := range paths {
		k := Check(p.Path, rels)
		kinds = append(kinds, k)
		st.Total++
		switch k {
		case KindValleyFree:
			st.ValleyFree++
		case KindValley:
			st.Valley++
			// A valley verdict implies a path of ≥3 ASes, so the origin
			// always exists here; the guard keeps a malformed PathObs
			// from being counted rather than panicking.
			if origin, ok := p.Origin(); ok {
				ends = append(ends, uint64(p.Vantage)<<32|uint64(origin))
			}
		default:
			st.Unclassified++
		}
	}
	return kinds, st, ends
}

// Assess runs the full taxonomy: classification plus the necessity test
// for every valley path, in one walk. Necessity is evaluated on g
// annotated with rels under *lenient* semantics — links with an unknown
// relationship act as peerings — so a path counts as necessary only
// when no valley-free alternative exists even granting the
// unclassified links their benign interpretation. The edges are
// annotated once, and one valley-free BFS per distinct vantage answers
// all of its valley paths from the BFS's distance array.
func Assess(paths iter.Seq[*dataset.PathObs], rels *intern.Table, g *topology.Graph) ([]Kind, Stats) {
	kinds, st, ends := classify(paths, rels)
	if len(ends) == 0 {
		return kinds, st
	}
	slices.Sort(ends)
	w := g.Walk(rels)
	for i := 0; i < len(ends); {
		vantage := ends[i] >> 32
		src, found := g.Index(asrel.ASN(vantage))
		if found {
			w.ValleyFree(src, true)
		}
		for ; i < len(ends) && ends[i]>>32 == vantage; i++ {
			dst, ok := g.Index(asrel.ASN(uint32(ends[i])))
			if !found || !ok || w.Dist(dst) < 0 {
				st.Necessary++
			}
		}
	}
	return kinds, st
}
