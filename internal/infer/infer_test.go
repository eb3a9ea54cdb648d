package infer

import (
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/intern"
)

func TestVotesOrientation(t *testing.T) {
	var v Votes
	k := asrel.Key(1, 2)
	v.Add(k, 1, asrel.P2C) // 1 provider of 2
	v.Add(k, 2, asrel.C2P) // 2 customer of 1 — same fact
	if v.P2C != 2 || v.C2P != 0 {
		t.Errorf("votes = %+v, want P2C=2", v)
	}
	v.Add(k, 2, asrel.P2P)
	if v.P2P != 1 || v.Total() != 3 || v.Transit() != 2 {
		t.Errorf("votes = %+v", v)
	}
}

func TestVotesResolve(t *testing.T) {
	cases := []struct {
		v    Votes
		want asrel.Rel
	}{
		{Votes{}, asrel.Unknown},
		{Votes{P2C: 3}, asrel.P2C},
		{Votes{C2P: 2}, asrel.C2P},
		{Votes{P2P: 5}, asrel.P2P},
		{Votes{S2S: 4, P2C: 1}, asrel.S2S},
		// Transit-vs-peer tie breaks toward transit.
		{Votes{P2C: 2, P2P: 2}, asrel.P2C},
		// Peer majority wins.
		{Votes{P2C: 1, P2P: 3}, asrel.P2P},
		// Directional transit conflict with peer evidence: peer.
		{Votes{P2C: 2, C2P: 2, P2P: 1}, asrel.P2P},
		// Pure directional conflict: unresolvable.
		{Votes{P2C: 2, C2P: 2}, asrel.Unknown},
	}
	for i, c := range cases {
		if got := c.v.Resolve(); got != c.want {
			t.Errorf("case %d: Resolve(%+v) = %s, want %s", i, c.v, got, c.want)
		}
	}
}

func TestVoteTable(t *testing.T) {
	vt := NewVoteTable()
	vt.Add(1, 2, asrel.P2C)
	vt.Add(2, 1, asrel.C2P)
	vt.Add(3, 4, asrel.P2P)
	vt.Add(5, 6, asrel.P2C)
	vt.Add(5, 6, asrel.C2P) // conflict → dropped in Resolve
	if vt.Len() != 3 {
		t.Fatalf("Len = %d", vt.Len())
	}
	keys := vt.Keys()
	if len(keys) != 3 || keys[0] != asrel.Key(1, 2) || keys[2] != asrel.Key(5, 6) {
		t.Errorf("Keys = %v", keys)
	}
	tbl := vt.Resolve()
	if tbl.Get(1, 2) != asrel.P2C || tbl.Get(3, 4) != asrel.P2P {
		t.Error("Resolve lost clean votes")
	}
	if tbl.Has(5, 6) {
		t.Error("conflicted link resolved")
	}
	if vt.Get(asrel.Key(1, 2)).P2C != 2 {
		t.Error("Get returned wrong votes")
	}
	if vt.Get(asrel.Key(9, 9)) != nil {
		t.Error("Get on absent link non-nil")
	}
}

func TestScoreTable(t *testing.T) {
	truth := asrel.NewTable()
	truth.Set(1, 2, asrel.P2C)
	truth.Set(3, 4, asrel.P2P)
	truth.Set(5, 6, asrel.P2C)
	truth.Set(7, 8, asrel.C2P)

	inferred := asrel.NewTable()
	inferred.Set(1, 2, asrel.P2C) // correct
	inferred.Set(3, 4, asrel.P2C) // peer inferred as transit
	inferred.Set(5, 6, asrel.P2P) // transit inferred as peer
	// 7-8 unclassified

	links := []asrel.LinkKey{
		asrel.Key(1, 2), asrel.Key(3, 4), asrel.Key(5, 6), asrel.Key(7, 8),
		asrel.Key(9, 10), // no truth: not counted
	}
	s := ScoreTable(intern.FromTable(inferred), truth, links)
	if s.Total != 4 || s.Classified != 3 || s.Correct != 1 {
		t.Errorf("score = %+v", s)
	}
	if s.PeerAsTransit != 1 || s.TransitAsPeer != 1 {
		t.Errorf("confusions = %+v", s)
	}
	if s.Coverage() != 0.75 {
		t.Errorf("coverage = %v", s.Coverage())
	}
	if s.Accuracy() != 1.0/3.0 {
		t.Errorf("accuracy = %v", s.Accuracy())
	}
	empty := ScoreTable(intern.FromTable(inferred), asrel.NewTable(), links)
	if empty.Coverage() != 0 || empty.Accuracy() != 0 {
		t.Error("empty score division")
	}
}

func TestScorePerClass(t *testing.T) {
	truth := asrel.NewTable()
	truth.Set(1, 2, asrel.P2C)
	truth.Set(3, 4, asrel.P2C)
	truth.Set(5, 6, asrel.P2P)
	truth.Set(7, 8, asrel.P2P)
	truth.Set(9, 10, asrel.S2S)

	inferred := asrel.NewTable()
	inferred.Set(1, 2, asrel.P2C)  // TP for p2c
	inferred.Set(3, 4, asrel.P2P)  // FN for p2c, FP for p2p
	inferred.Set(5, 6, asrel.P2P)  // TP for p2p
	inferred.Set(9, 10, asrel.P2C) // FN for s2s, FP for p2c
	// 7-8 unclassified: FN for p2p, no FP anywhere.

	links := []asrel.LinkKey{
		asrel.Key(1, 2), asrel.Key(3, 4), asrel.Key(5, 6),
		asrel.Key(7, 8), asrel.Key(9, 10),
	}
	s := ScoreTable(intern.FromTable(inferred), truth, links)

	if got, want := s.Class(asrel.P2C), (ClassCount{TP: 1, FP: 1, FN: 1}); got != want {
		t.Errorf("p2c = %+v, want %+v", got, want)
	}
	if got, want := s.Class(asrel.P2P), (ClassCount{TP: 1, FP: 1, FN: 1}); got != want {
		t.Errorf("p2p = %+v, want %+v", got, want)
	}
	if got, want := s.Class(asrel.S2S), (ClassCount{FN: 1}); got != want {
		t.Errorf("s2s = %+v, want %+v", got, want)
	}
	if p := s.Precision(asrel.P2C); p != 0.5 {
		t.Errorf("p2c precision = %v, want 0.5", p)
	}
	if r := s.Recall(asrel.P2P); r != 0.5 {
		t.Errorf("p2p recall = %v, want 0.5", r)
	}
	if s.Class(asrel.P2C).Truth() != 2 || s.Class(asrel.S2S).Truth() != 1 {
		t.Errorf("truth denominators wrong: %+v", s.ByClass)
	}
	// A class that never appears divides to zero, not NaN.
	if s.Precision(asrel.C2P) != 0 || s.Recall(asrel.C2P) != 0 {
		t.Error("absent class should score 0/0 as 0")
	}

	// The per-class tallies reconcile with the aggregate counters: every
	// graded link contributes exactly one TP or one FN.
	tp, fn := 0, 0
	for _, c := range s.ByClass {
		tp += c.TP
		fn += c.FN
	}
	if tp != s.Correct || tp+fn != s.Total {
		t.Errorf("per-class tallies (tp=%d fn=%d) disagree with aggregate %+v", tp, fn, s)
	}
}

func TestScoreEmptyLinkSet(t *testing.T) {
	truth := asrel.NewTable()
	truth.Set(1, 2, asrel.P2C)
	inferred := asrel.NewTable()
	inferred.Set(1, 2, asrel.P2C)

	s := ScoreTable(intern.FromTable(inferred), truth, nil)
	if s.Total != 0 || s.Classified != 0 || s.Correct != 0 {
		t.Errorf("empty link set scored %+v", s)
	}
	if s.ByClass != nil {
		t.Errorf("empty link set allocated ByClass %v", s.ByClass)
	}
	if s.Coverage() != 0 || s.Accuracy() != 0 {
		t.Error("empty link set divisions should be 0")
	}
	if s.Precision(asrel.P2C) != 0 || s.Recall(asrel.P2C) != 0 {
		t.Error("per-class lookups on a nil map should be 0")
	}
}

func TestScoreAllUnclassified(t *testing.T) {
	truth := asrel.NewTable()
	truth.Set(1, 2, asrel.P2C)
	truth.Set(3, 4, asrel.P2P)
	links := []asrel.LinkKey{asrel.Key(1, 2), asrel.Key(3, 4)}

	s := ScoreTable(new(intern.Table), truth, links)
	if s.Total != 2 || s.Classified != 0 || s.Correct != 0 {
		t.Errorf("all-unclassified scored %+v", s)
	}
	if s.Accuracy() != 0 {
		t.Errorf("accuracy = %v, want 0 (no NaN)", s.Accuracy())
	}
	// Every truth link is a miss for its class; nothing is a false
	// positive because nothing was inferred.
	if got, want := s.Class(asrel.P2C), (ClassCount{FN: 1}); got != want {
		t.Errorf("p2c = %+v, want %+v", got, want)
	}
	if got, want := s.Class(asrel.P2P), (ClassCount{FN: 1}); got != want {
		t.Errorf("p2p = %+v, want %+v", got, want)
	}
	if s.Recall(asrel.P2C) != 0 || s.Precision(asrel.P2P) != 0 {
		t.Error("recall/precision of missed classes should be 0")
	}
}

func TestVoteTableCounted(t *testing.T) {
	vt := NewVoteTable()
	vt.AddN(2, 1, asrel.C2P, 3) // three votes that 1 is provider of 2
	vt.Add(1, 2, asrel.P2P)
	if v := vt.Get(asrel.Key(1, 2)); v.P2C != 3 || v.P2P != 1 {
		t.Fatalf("votes = %+v", *v)
	}
	vt.SubN(2, 1, asrel.C2P, 3)
	if got := vt.Resolve().Get(1, 2); got != asrel.P2P {
		t.Errorf("after SubN rel = %s, want p2p", got)
	}
	vt.Sub(1, 2, asrel.P2P)
	if vt.Len() != 0 {
		t.Errorf("link kept after its last vote was retracted: Len = %d", vt.Len())
	}
}
