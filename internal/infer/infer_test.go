package infer

import (
	"math"
	"math/rand"
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
	if v, ok := vt.Get(asrel.Key(1, 2)); !ok || v.P2C != 2 {
		t.Error("Get returned wrong votes")
	}
	if _, ok := vt.Get(asrel.Key(9, 9)); ok {
		t.Error("Get on absent link found votes")
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
	if v, _ := vt.Get(asrel.Key(1, 2)); v.P2C != 3 || v.P2P != 1 {
		t.Fatalf("votes = %+v", v)
	}
	vt.SubN(2, 1, asrel.C2P, 3)
	if got := vt.Resolve().Get(1, 2); got != asrel.P2P {
		t.Errorf("after SubN rel = %s, want p2p", got)
	}
	vt.Sub(1, 2, asrel.P2P)
	if vt.Len() != 0 {
		t.Errorf("link kept after its last vote was retracted: Len = %d", vt.Len())
	}
	// Votes that count nothing record nothing.
	vt.AddN(3, 4, asrel.P2C, 0)
	vt.Add(3, 4, asrel.Unknown)
	if _, ok := vt.Get(asrel.Key(3, 4)); ok || vt.Len() != 0 {
		t.Errorf("empty votes recorded a link: Len = %d", vt.Len())
	}
}

// voteEmission is one AddN the vote-table test may later retract.
type voteEmission struct {
	a, b asrel.ASN
	rel  asrel.Rel
	n    int
}

// TestVoteTableMatchesMap drives the open-addressed table and a map
// reference through the same random AddN/SubN sequence — votes
// retracted to zero and re-added, and a link pool that widens
// mid-run so the table grows — and compares Get, Keys, Len and Resolve
// throughout.
func TestVoteTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rels := []asrel.Rel{asrel.P2C, asrel.C2P, asrel.P2P, asrel.S2S}
	var pool []asrel.LinkKey
	widen := func(n int) {
		for len(pool) < n {
			a, b := asrel.ASN(rng.Uint32()), asrel.ASN(rng.Intn(64))
			switch rng.Intn(8) {
			case 0:
				a = 0
			case 1:
				a = math.MaxUint32
			}
			pool = append(pool, asrel.Key(a, b))
		}
	}
	vt := NewVoteTable()
	ref := make(map[asrel.LinkKey]Votes)
	var live []voteEmission
	check := func(step int) {
		t.Helper()
		if vt.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, vt.Len(), len(ref))
		}
		keys := vt.Keys()
		if len(keys) != len(ref) {
			t.Fatalf("step %d: %d keys, want %d", step, len(keys), len(ref))
		}
		for i, k := range keys {
			if i > 0 && intern.Pack(keys[i-1]) >= intern.Pack(k) {
				t.Fatalf("step %d: Keys out of order at %d: %v then %v", step, i, keys[i-1], k)
			}
			if _, ok := ref[k]; !ok {
				t.Fatalf("step %d: Keys lists %v, which has no votes", step, k)
			}
		}
		for _, k := range pool {
			got, ok := vt.Get(k)
			want, wantOK := ref[k]
			if ok != wantOK || got != want {
				t.Fatalf("step %d: Get(%v) = %+v, %v; want %+v, %v", step, k, got, ok, want, wantOK)
			}
		}
		tbl := vt.Resolve()
		known := 0
		for k, v := range ref {
			if r := v.Resolve(); r.Known() {
				known++
				if got := tbl.GetKey(k); got != r {
					t.Fatalf("step %d: Resolve()[%v] = %s, want %s", step, k, got, r)
				}
			}
		}
		if tbl.Len() != known {
			t.Fatalf("step %d: Resolve() has %d links, want %d", step, tbl.Len(), known)
		}
	}
	apply := func(e voteEmission, sign int) {
		k := asrel.Key(e.a, e.b)
		v := ref[k]
		v.AddN(k, e.a, e.rel, sign*e.n)
		if v.Total() == 0 {
			delete(ref, k)
		} else {
			ref[k] = v
		}
		if sign > 0 {
			vt.AddN(e.a, e.b, e.rel, e.n)
		} else {
			vt.SubN(e.a, e.b, e.rel, e.n)
		}
	}
	widen(12)
	for step := 0; step < 30000; step++ {
		if step == 10000 {
			widen(3000) // the table must grow past its first sizes
		}
		if len(live) > 0 && rng.Intn(5) < 2 {
			i := rng.Intn(len(live))
			apply(live[i], -1)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			k := pool[rng.Intn(len(pool))]
			a, b := k.Lo, k.Hi
			if rng.Intn(2) == 0 {
				a, b = b, a
			}
			e := voteEmission{a, b, rels[rng.Intn(len(rels))], 1 + rng.Intn(3)}
			apply(e, 1)
			live = append(live, e)
		}
		if step%997 == 0 {
			check(step)
		}
	}
	check(30000)
	for _, e := range live {
		apply(e, -1)
	}
	check(30001)
	if vt.Len() != 0 {
		t.Fatalf("every vote retracted, Len = %d", vt.Len())
	}

	// A fixed set of links voted and retracted over and over reuses the
	// slots it freed: the table never grows past what the set needed.
	cyc := NewVoteTable()
	fixed := pool[:40]
	for _, k := range fixed {
		cyc.Add(k.Lo, k.Hi, asrel.P2C)
	}
	slots := len(cyc.slots)
	for i := range fixed {
		cyc.Sub(fixed[i].Lo, fixed[i].Hi, asrel.P2C)
	}
	for c := 0; c < 100000; c++ {
		k := fixed[rng.Intn(len(fixed))]
		cyc.Add(k.Hi, k.Lo, asrel.C2P)
		cyc.Sub(k.Hi, k.Lo, asrel.C2P)
	}
	if cyc.Len() != 0 || len(cyc.slots) != slots {
		t.Errorf("after 10⁵ add/retract cycles over %d links: Len = %d, %d slots (was %d)", len(fixed), cyc.Len(), len(cyc.slots), slots)
	}
}

// TestVoteTableSteadyStateNoAlloc pins AddN and SubN at zero
// allocations once the table holds its working set: a vote on a
// present link, and a link retracted to nothing and voted again, both
// reuse the table's storage.
func TestVoteTableSteadyStateNoAlloc(t *testing.T) {
	vt := NewVoteTable()
	for i := asrel.ASN(1); i <= 20; i++ {
		vt.AddN(i, i+100, asrel.P2C, 2)
	}
	allocs := testing.AllocsPerRun(200, func() {
		vt.AddN(5, 105, asrel.P2P, 3)
		vt.SubN(5, 105, asrel.P2P, 3)
		vt.SubN(7, 107, asrel.P2C, 2)
		vt.AddN(7, 107, asrel.P2C, 2)
	})
	if allocs != 0 {
		t.Errorf("steady-state AddN/SubN allocate %.1f objects per run, want 0", allocs)
	}
}
