// Package infer holds the pieces shared by every Type-of-Relationship
// inference algorithm in this repository: the vote accumulator used to
// aggregate per-path evidence into per-link relationships, and the
// scoring helper that grades an inferred table against ground truth.
package infer

import (
	"sort"

	"hybridrel/internal/asrel"
	"hybridrel/internal/intern"
)

// Votes tallies directed relationship evidence for one link, normalized
// to the canonical Lo→Hi orientation.
type Votes struct {
	P2C int // Lo is provider of Hi
	C2P int // Lo is customer of Hi
	P2P int
	S2S int
}

// Total returns the number of votes received.
func (v *Votes) Total() int { return v.P2C + v.C2P + v.P2P + v.S2S }

// Transit returns the number of transit votes (either direction).
func (v *Votes) Transit() int { return v.P2C + v.C2P }

// Add registers one vote for the directed pair (a, b) having
// relationship r, where k is the canonical key of {a, b}.
func (v *Votes) Add(k asrel.LinkKey, a asrel.ASN, r asrel.Rel) { v.AddN(k, a, r, 1) }

// AddN registers n votes for the directed pair (a, b) having
// relationship r; a negative n retracts votes, which is how the live
// incremental engine withdraws a path's evidence.
func (v *Votes) AddN(k asrel.LinkKey, a asrel.ASN, r asrel.Rel, n int) {
	if a != k.Lo {
		r = r.Invert()
	}
	switch r {
	case asrel.P2C:
		v.P2C += n
	case asrel.C2P:
		v.C2P += n
	case asrel.P2P:
		v.P2P += n
	case asrel.S2S:
		v.S2S += n
	}
}

// Resolve collapses the votes into one relationship (Lo→Hi oriented)
// using the repository-wide rule: majority wins; a transit-vs-peer tie
// breaks toward transit (providers tag customer routes far more reliably
// than peers mis-tag); an unresolvable direction conflict yields Unknown.
func (v *Votes) Resolve() asrel.Rel {
	if v.Total() == 0 {
		return asrel.Unknown
	}
	if v.S2S > v.Transit() && v.S2S > v.P2P {
		return asrel.S2S
	}
	if v.P2P > v.Transit() {
		return asrel.P2P
	}
	// Transit interpretation (wins ties against p2p).
	switch {
	case v.P2C > v.C2P:
		return asrel.P2C
	case v.C2P > v.P2C:
		return asrel.C2P
	case v.P2P > 0:
		return asrel.P2P // direction tied; peer evidence breaks it
	default:
		return asrel.Unknown // pure directional conflict
	}
}

// VoteTable accumulates Votes per link and resolves them into a frozen
// intern.Table.
type VoteTable struct {
	votes map[asrel.LinkKey]*Votes
}

// NewVoteTable returns an empty accumulator.
func NewVoteTable() *VoteTable {
	return &VoteTable{votes: make(map[asrel.LinkKey]*Votes)}
}

// Add registers a vote that a (toward b) has relationship r.
func (t *VoteTable) Add(a, b asrel.ASN, r asrel.Rel) { t.AddN(a, b, r, 1) }

// Sub retracts a vote previously registered with Add.
func (t *VoteTable) Sub(a, b asrel.ASN, r asrel.Rel) { t.SubN(a, b, r, 1) }

// AddN registers n votes that a (toward b) has relationship r — one
// counted emission standing for n identical paths.
func (t *VoteTable) AddN(a, b asrel.ASN, r asrel.Rel, n int) {
	k := asrel.Key(a, b)
	v := t.votes[k]
	if v == nil {
		v = &Votes{}
		t.votes[k] = v
	}
	v.AddN(k, a, r, n)
}

// SubN retracts n votes previously registered with Add or AddN,
// dropping the link's record when its last vote goes. Retracting more
// votes than were added is a caller bug; the counts would go negative
// and Resolve's majorities would be meaningless.
func (t *VoteTable) SubN(a, b asrel.ASN, r asrel.Rel, n int) {
	k := asrel.Key(a, b)
	v := t.votes[k]
	if v == nil {
		return
	}
	v.AddN(k, a, r, -n)
	if v.Total() == 0 {
		delete(t.votes, k)
	}
}

// Get returns the vote record for a link, or nil.
func (t *VoteTable) Get(k asrel.LinkKey) *Votes { return t.votes[k] }

// Keys returns every voted link in canonical ascending order.
func (t *VoteTable) Keys() []asrel.LinkKey {
	out := make([]asrel.LinkKey, 0, len(t.votes))
	for k := range t.votes {
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

// Len returns the number of links with votes.
func (t *VoteTable) Len() int { return len(t.votes) }

// Resolve produces the final relationship table, frozen and sorted by
// packed key; links resolving to Unknown are omitted.
func (t *VoteTable) Resolve() *intern.Table {
	keys := make([]uint64, 0, len(t.votes))
	for k, v := range t.votes {
		if v.Resolve().Known() {
			keys = append(keys, intern.Pack(k))
		}
	}
	intern.SortPacked(keys)
	rels := make([]asrel.Rel, len(keys))
	for i, u := range keys {
		rels[i] = t.votes[intern.Unpack(u)].Resolve()
	}
	return intern.TableFromSorted(keys, rels)
}

// ClassCount is one relationship class's confusion tally, in the
// canonical Lo→Hi orientation: TP links whose truth and inference both
// name the class, FP links the inference wrongly assigned to it, FN
// links of the class the inference missed (assigned elsewhere or left
// unclassified).
type ClassCount struct {
	TP int
	FP int
	FN int
}

// Truth returns the number of graded links whose ground truth is this
// class (the recall denominator).
func (c ClassCount) Truth() int { return c.TP + c.FN }

// Precision returns TP/(TP+FP), or 0 when the class was never inferred.
func (c ClassCount) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when the class has no truth links.
func (c ClassCount) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Score grades an inferred table against ground truth.
type Score struct {
	// Total is the number of links graded.
	Total int
	// Classified is how many of them the inference assigned any
	// relationship.
	Classified int
	// Correct is how many classified links match the truth exactly.
	Correct int
	// PeerAsTransit / TransitAsPeer count the two confusion directions
	// that matter for hybrid links.
	PeerAsTransit int
	TransitAsPeer int
	// ByClass holds per-relationship-class confusion counts (P2C, C2P,
	// P2P, S2S) in the canonical Lo→Hi orientation, so per-class
	// precision and recall are recoverable, not just the aggregate
	// accuracy. Nil when no links were graded.
	ByClass map[asrel.Rel]ClassCount
}

// Class returns the confusion tally for one relationship class (the
// zero ClassCount when the class never appeared).
func (s Score) Class(r asrel.Rel) ClassCount { return s.ByClass[r] }

// Precision returns the precision of one class: of the links inferred
// as r, the share whose truth is r.
func (s Score) Precision(r asrel.Rel) float64 { return s.ByClass[r].Precision() }

// Recall returns the recall of one class: of the links whose truth is
// r, the share inferred as r.
func (s Score) Recall(r asrel.Rel) float64 { return s.ByClass[r].Recall() }

// Coverage returns Classified/Total.
func (s Score) Coverage() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Classified) / float64(s.Total)
}

// Accuracy returns Correct/Classified.
func (s Score) Accuracy() float64 {
	if s.Classified == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Classified)
}

// ScoreTable grades inferred against truth over the given links.
// Truth is the generator's mutable planted table.
func ScoreTable(inferred *intern.Table, truth *asrel.Table, links []asrel.LinkKey) Score {
	var s Score
	tally := func(r asrel.Rel, f func(*ClassCount)) {
		if s.ByClass == nil {
			s.ByClass = make(map[asrel.Rel]ClassCount, 4)
		}
		c := s.ByClass[r]
		f(&c)
		s.ByClass[r] = c
	}
	for _, k := range links {
		want := truth.GetKey(k)
		if !want.Known() {
			continue
		}
		s.Total++
		got := inferred.GetKey(k)
		if !got.Known() {
			tally(want, func(c *ClassCount) { c.FN++ })
			continue
		}
		s.Classified++
		if got == want {
			s.Correct++
			tally(want, func(c *ClassCount) { c.TP++ })
			continue
		}
		tally(want, func(c *ClassCount) { c.FN++ })
		tally(got, func(c *ClassCount) { c.FP++ })
		if want == asrel.P2P && got.Transit() {
			s.PeerAsTransit++
		}
		if want.Transit() && got == asrel.P2P {
			s.TransitAsPeer++
		}
	}
	return s
}
