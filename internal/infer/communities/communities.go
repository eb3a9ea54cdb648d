// Package communities implements the paper's primary inference method:
// mining the BGP Communities attribute for relationship tags. A
// documented community T:v on a route's community list was attached by
// AS T when it imported the route; the documented meaning of v names the
// business relationship between T and the neighbor T learned the route
// from — the next AS toward the origin on the AS path.
package communities

import (
	"iter"

	"hybridrel/internal/asrel"
	"hybridrel/internal/community"
	"hybridrel/internal/dataset"
	"hybridrel/internal/infer"
	"hybridrel/internal/intern"
)

// Result is the outcome of community mining.
type Result struct {
	// Table holds the resolved relationships.
	Table *intern.Table
	// Votes exposes the per-link evidence for diagnostics.
	Votes *infer.VoteTable
	// TaggedPaths counts paths that contributed at least one usable tag.
	TaggedPaths int
	// OffPathTags counts tags whose tagger AS was not on the path
	// (ignored: the attribution is undefined).
	OffPathTags int
	// TERoutes counts paths carrying at least one TE community.
	TERoutes int
}

// Infer mines every path of one walk against the dictionary.
func Infer(paths iter.Seq[*dataset.PathObs], dict *community.Dictionary) *Result {
	res := &Result{Votes: infer.NewVoteTable()}
	for p := range paths {
		contributed, offPath, hasTE := PathVotes(p, dict, res.Votes.Add)
		res.OffPathTags += offPath
		if contributed {
			res.TaggedPaths++
		}
		if hasTE {
			res.TERoutes++
		}
	}
	res.Table = res.Votes.Resolve()
	return res
}

// PathVotes mines one path's communities, emitting one directed vote
// per usable tag: emit(tagger, neighbor, rel) asserts tagger's
// relationship toward the next AS on the path. It is the single
// deterministic source of per-path community evidence — batch Infer
// aggregates its emissions over all paths, and the live incremental
// engine replays them with opposite sign when a path is withdrawn, so
// the two cannot drift apart. It allocates nothing itself.
//
//hybridrel:hotpath
func PathVotes(p *dataset.PathObs, dict *community.Dictionary, emit func(tagger, neighbor asrel.ASN, rel asrel.Rel)) (contributed bool, offPath int, hasTE bool) {
	if len(p.Communities) == 0 || len(p.Path) < 2 {
		return false, 0, false
	}
	for _, c := range p.Communities {
		meaning, ok := dict.Lookup(c)
		if !ok {
			continue
		}
		if meaning == community.MeaningTE {
			hasTE = true
			continue
		}
		tagger := asrel.ASN(c.ASN())
		i := position(p.Path, tagger)
		if i < 0 {
			offPath++
			continue
		}
		if i == len(p.Path)-1 {
			// The origin imports nothing on this path; a
			// relationship tag from it is unattributable.
			offPath++
			continue
		}
		rel, ok := meaning.Rel()
		if !ok {
			continue
		}
		emit(tagger, p.Path[i+1], rel)
		contributed = true
	}
	return contributed, offPath, hasTE
}

// position returns the index of the last occurrence of a on path, or -1.
// A cleaned path holds each AS once and is a handful of hops long, so a
// scan beats indexing it.
func position(path []asrel.ASN, a asrel.ASN) int {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == a {
			return i
		}
	}
	return -1
}
