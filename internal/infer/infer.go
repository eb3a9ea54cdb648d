// Package infer holds the pieces shared by every Type-of-Relationship
// inference algorithm in this repository: the vote accumulator used to
// aggregate per-path evidence into per-link relationships, and the
// scoring helper that grades an inferred table against ground truth.
package infer

import (
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
// intern.Table. It is an open-addressed table on packed link keys with
// each link's counts stored inline, after intern.CountsAccum: a vote on
// a link already present is a hash probe and an add, with no per-link
// heap object. A slot is occupied exactly when its counts are not all
// zero, so a link whose last vote is retracted frees its slot — by
// backward-shift deletion, leaving no tombstone — and a churning live
// feed cannot grow the table beyond its distinct voted links. The zero
// value is ready to use. Its probe and grow loops mirror CountsAccum's
// and are kept separate for speed: a generic table shared by both was
// markedly slower, as Go does not inline its shape-instantiated probe.
type VoteTable struct {
	slots []voteSlot
	n     int
}

// voteSlot is one table slot: a packed link key and its inline counts.
type voteSlot struct {
	key uint64
	v   Votes
}

// voteTableMinSize is the initial slot count; must be a power of two.
const voteTableMinSize = 64

// NewVoteTable returns an empty accumulator.
func NewVoteTable() *VoteTable { return &VoteTable{} }

// Add registers a vote that a (toward b) has relationship r.
func (t *VoteTable) Add(a, b asrel.ASN, r asrel.Rel) { t.AddN(a, b, r, 1) }

// Sub retracts a vote previously registered with Add.
func (t *VoteTable) Sub(a, b asrel.ASN, r asrel.Rel) { t.SubN(a, b, r, 1) }

// AddN registers n votes that a (toward b) has relationship r — one
// counted emission standing for n identical paths. Votes that leave the
// link's counts all zero (n == 0, or r not a relationship) record
// nothing.
//
//hybridrel:hotpath
func (t *VoteTable) AddN(a, b asrel.ASN, r asrel.Rel, n int) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	k := asrel.Key(a, b)
	i, found := t.find(intern.Pack(k))
	s := &t.slots[i]
	if !found {
		s.key = intern.Pack(k)
		t.n++
	}
	s.v.AddN(k, a, r, n)
	if s.v == (Votes{}) {
		t.remove(i) // nothing counted, or a negative n cancelled the last votes
	}
}

// SubN retracts n votes previously registered with Add or AddN,
// dropping the link's record when its last vote goes. Retracting more
// votes than were added is a caller bug; the counts would go negative
// and Resolve's majorities would be meaningless.
//
//hybridrel:hotpath
func (t *VoteTable) SubN(a, b asrel.ASN, r asrel.Rel, n int) {
	k := asrel.Key(a, b)
	i, found := t.find(intern.Pack(k))
	if !found {
		return
	}
	s := &t.slots[i]
	s.v.AddN(k, a, r, -n)
	if s.v.Total() == 0 {
		t.remove(i)
	}
}

// find returns the slot holding u, or the empty slot where u would go.
func (t *VoteTable) find(u uint64) (int, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	i := intern.HashPacked(u) & mask
	for {
		s := &t.slots[i]
		if s.v == (Votes{}) {
			return int(i), false
		}
		if s.key == u {
			return int(i), true
		}
		i = (i + 1) & mask
	}
}

// remove empties slot i, shifting later members of its probe run back
// so every remaining key stays reachable from its home slot.
func (t *VoteTable) remove(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].v != (Votes{}); j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home slot
		// lies cyclically in (i, j].
		home := int(intern.HashPacked(t.slots[j].key)) & mask
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = voteSlot{}
	t.n--
}

// grow doubles the table (or seeds it) and reinserts every occupied slot.
func (t *VoteTable) grow() {
	size := voteTableMinSize
	if len(t.slots) > 0 {
		size = len(t.slots) * 2
	}
	old := t.slots
	t.slots = make([]voteSlot, size)
	for _, s := range old {
		if s.v != (Votes{}) {
			i, _ := t.find(s.key)
			t.slots[i] = s
		}
	}
}

// Get returns the votes recorded for a link and whether it has any.
// The record is a copy: the table moves its slots as it grows.
func (t *VoteTable) Get(k asrel.LinkKey) (Votes, bool) {
	i, found := t.find(intern.Pack(k))
	if !found {
		return Votes{}, false
	}
	return t.slots[i].v, true
}

// packed returns the packed keys of the links selected by keep,
// ascending.
func (t *VoteTable) packed(keep func(*Votes) bool) []uint64 {
	keys := make([]uint64, 0, t.n)
	for i := range t.slots {
		if s := &t.slots[i]; s.v != (Votes{}) && keep(&s.v) {
			keys = append(keys, s.key)
		}
	}
	intern.SortPacked(keys)
	return keys
}

// Keys returns every voted link in canonical ascending order.
func (t *VoteTable) Keys() []asrel.LinkKey {
	keys := t.packed(func(*Votes) bool { return true })
	out := make([]asrel.LinkKey, len(keys))
	for i, u := range keys {
		out[i] = intern.Unpack(u)
	}
	return out
}

// Len returns the number of links with votes.
func (t *VoteTable) Len() int { return t.n }

// Resolve produces the final relationship table, frozen and sorted by
// packed key; links resolving to Unknown are omitted.
func (t *VoteTable) Resolve() *intern.Table {
	keys := t.packed(func(v *Votes) bool { return v.Resolve().Known() })
	rels := make([]asrel.Rel, len(keys))
	for i, u := range keys {
		j, _ := t.find(u)
		rels[i] = t.slots[j].v.Resolve()
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
