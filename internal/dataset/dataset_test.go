package dataset

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
	"hybridrel/internal/mrt"
)

// TestAddPathCleaning pins path cleaning on ingest: prepending
// collapses, a loop or an empty path is rejected and tallied (the
// empty path as a set drop, as Admit tallies it), a
// single-AS path is kept, and a path longer than the pairwise loop
// check's bound goes through the map-checked branch with the same
// verdicts.
func TestAddPathCleaning(t *testing.T) {
	d := New(asrel.IPv4)
	if err := d.AddPath([]asrel.ASN{1, 1, 2, 2, 2, 3}, nil, 0, false); err != nil {
		t.Fatal(err)
	}
	if got := walk(d)[0].Path; !reflect.DeepEqual(got, []asrel.ASN{1, 2, 3}) {
		t.Errorf("prepend collapse = %v", got)
	}
	if err := d.AddPath([]asrel.ASN{1, 2, 1}, nil, 0, false); err == nil {
		t.Error("loop accepted")
	}
	if err := d.AddPath(nil, nil, 0, false); err == nil {
		t.Error("empty path accepted")
	}
	if err := d.AddPath([]asrel.ASN{7}, nil, 0, false); err != nil {
		t.Errorf("single-AS path rejected: %v", err)
	}

	long := make([]asrel.ASN, 0, 2*(cleanPathQuadraticMax+8))
	for i := 0; i < cleanPathQuadraticMax+8; i++ {
		long = append(long, asrel.ASN(100+i), asrel.ASN(100+i)) // every hop prepended
	}
	if err := d.AddPath(long, nil, 0, false); err != nil {
		t.Fatalf("long prepended path rejected: %v", err)
	}
	looped := append(append([]asrel.ASN(nil), long...), 100)
	if err := d.AddPath(looped, nil, 0, false); err == nil {
		t.Error("loop in a long path accepted")
	}

	if sets, loops := d.Dropped(); sets != 1 || loops != 2 {
		t.Errorf("drops = %d sets, %d loops; want 1 (the empty path), 2", sets, loops)
	}
	if d.NumUniquePaths() != 3 || d.NumObservations() != 6 {
		t.Errorf("unique = %d, observations = %d; want 3, 6", d.NumUniquePaths(), d.NumObservations())
	}
	var got []asrel.ASN
	for _, p := range walk(d) {
		if len(p.Path) > cleanPathQuadraticMax {
			got = p.Path
		}
	}
	if len(got) != cleanPathQuadraticMax+8 || got[0] != 100 || got[len(got)-1] != asrel.ASN(100+cleanPathQuadraticMax+7) {
		t.Errorf("long path stored as %v", got)
	}
}

// TestAdmitTallies pins the admission step AddMRT and live ingest
// share: every route is one observation; an AS_SET or an empty path
// is a set drop, a loop a loop drop; an admitted route activates its
// path on first sight only.
func TestAdmitTallies(t *testing.T) {
	d := New(asrel.IPv4)
	admit := func(path bgp.ASPath) (bool, bool) {
		attrs := bgp.Attrs{ASPath: path}
		_, activated, ok := d.Admit(&attrs)
		return activated, ok
	}
	set := bgp.ASPath{
		{Type: bgp.SegSequence, ASNs: []asrel.ASN{1, 2}},
		{Type: bgp.SegSet, ASNs: []asrel.ASN{3, 4}},
	}
	for _, c := range []struct {
		name          string
		path          bgp.ASPath
		activated, ok bool
	}{
		{"AS_SET", set, false, false},
		{"empty", nil, false, false},
		{"empty segment", bgp.ASPath{{Type: bgp.SegSequence}}, false, false},
		{"loop", bgp.Sequence(1, 2, 1), false, false},
		{"first sight", bgp.Sequence(1, 2, 3), true, true},
		{"again", bgp.Sequence(1, 2, 2, 3), false, true},
	} {
		if activated, ok := admit(c.path); activated != c.activated || ok != c.ok {
			t.Errorf("%s: activated %v ok %v, want %v %v", c.name, activated, ok, c.activated, c.ok)
		}
	}
	if sets, loops := d.Dropped(); sets != 3 || loops != 1 {
		t.Errorf("drops = %d sets, %d loops; want 3, 1", sets, loops)
	}
	if d.NumObservations() != 6 || d.NumUniquePaths() != 1 || d.ActiveRefs() != 2 {
		t.Errorf("observations %d, unique %d, refs %d; want 6, 1, 2", d.NumObservations(), d.NumUniquePaths(), d.ActiveRefs())
	}
}

// TestEmptyPathTallySameAtEveryEntry pins one tally for one
// rejection: an empty path is a set drop whether it arrives raw
// through AddPath or as an empty AS_PATH through Admit.
func TestEmptyPathTallySameAtEveryEntry(t *testing.T) {
	raw, admitted := New(asrel.IPv4), New(asrel.IPv4)
	if err := raw.AddPath(nil, nil, 0, false); err == nil {
		t.Error("empty path accepted by AddPath")
	}
	if _, _, ok := admitted.Admit(&bgp.Attrs{}); ok {
		t.Error("empty AS_PATH accepted by Admit")
	}
	rs, rl := raw.Dropped()
	as, al := admitted.Dropped()
	if rs != as || rl != al || rs != 1 {
		t.Errorf("AddPath(nil) drops = %d sets, %d loops; Admit of an empty AS_PATH = %d, %d; want 1, 0 for both", rs, rl, as, al)
	}
	if raw.NumObservations() != 1 || admitted.NumObservations() != 1 {
		t.Errorf("observations = %d, %d; want 1, 1", raw.NumObservations(), admitted.NumObservations())
	}
}

func TestAddPathDedupe(t *testing.T) {
	d := New(asrel.IPv4)
	comms := []bgp.Community{bgp.MakeCommunity(2, 100)}
	if err := d.AddPath([]asrel.ASN{1, 2, 3}, comms, 300, true); err != nil {
		t.Fatal(err)
	}
	// Same path with prepending merges.
	if err := d.AddPath([]asrel.ASN{1, 2, 2, 3}, comms, 300, true); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPath([]asrel.ASN{1, 2, 3}, comms, 300, true); err != nil {
		t.Fatal(err)
	}
	if d.NumUniquePaths() != 1 {
		t.Fatalf("unique paths = %d, want 1", d.NumUniquePaths())
	}
	obs := walk(d)[0]
	if origin, ok := obs.Origin(); obs.Vantage != 1 || !ok || origin != 3 {
		t.Error("vantage/origin wrong")
	}
	if d.NumLinks() != 2 || d.LinkVisibility(asrel.Key(1, 2)) != 1 {
		t.Errorf("links = %d, vis(1-2) = %d", d.NumLinks(), d.LinkVisibility(asrel.Key(1, 2)))
	}
	if d.NumObservations() != 3 {
		t.Errorf("observations = %d", d.NumObservations())
	}
}

// TestFlatIndexIncrementalFreeze pins the fold-then-mutate path: link
// counts must stay correct when ingestion resumes after a query froze
// the flat index (only the new occurrences are folded in, but the
// result must equal a from-scratch count).
func TestFlatIndexIncrementalFreeze(t *testing.T) {
	d := New(asrel.IPv4)
	add := func(path ...asrel.ASN) {
		t.Helper()
		if err := d.AddPath(path, nil, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	add(1, 2, 3)
	if d.LinkVisibility(asrel.Key(2, 3)) != 1 { // freezes the index
		t.Fatal("pre-freeze count wrong")
	}
	add(4, 2, 3) // ingest after the freeze
	add(1, 2, 3) // duplicate path: no new link occurrences
	if got := d.LinkVisibility(asrel.Key(2, 3)); got != 2 {
		t.Errorf("post-freeze vis(2-3) = %d, want 2", got)
	}
	if got := d.LinkVisibility(asrel.Key(2, 4)); got != 1 {
		t.Errorf("post-freeze vis(2-4) = %d, want 1", got)
	}
	if d.NumLinks() != 3 { // {1-2, 2-3, 2-4}
		t.Errorf("NumLinks = %d, want 3", d.NumLinks())
	}

	// Merge after a freeze folds the adopted paths' links in too.
	other := New(asrel.IPv4)
	if err := other.AddPath([]asrel.ASN{5, 2, 3}, nil, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := d.Merge(other); err != nil {
		t.Fatal(err)
	}
	if got := d.LinkVisibility(asrel.Key(2, 3)); got != 3 {
		t.Errorf("post-merge vis(2-3) = %d, want 3", got)
	}
	if got := d.LinkVisibility(asrel.Key(2, 5)); got != 1 {
		t.Errorf("post-merge vis(2-5) = %d, want 1", got)
	}
}

// TestOriginEmptyPath pins the guard on PathObs.Origin: a zero-length
// Path — impossible via AddPath, but constructible by a future caller
// or a decoded artifact — must report not-ok instead of panicking on
// Path[len-1].
func TestOriginEmptyPath(t *testing.T) {
	var p PathObs
	if origin, ok := p.Origin(); ok || origin != 0 {
		t.Fatalf("Origin() on empty path = %v, %v; want 0, false", origin, ok)
	}
	p.Path = []asrel.ASN{7}
	if origin, ok := p.Origin(); !ok || origin != 7 {
		t.Fatalf("Origin() on one-hop path = %v, %v; want 7, true", origin, ok)
	}
}

func TestAddPathLoopCounted(t *testing.T) {
	d := New(asrel.IPv4)
	if err := d.AddPath([]asrel.ASN{1, 2, 1}, nil, 0, false); err == nil {
		t.Fatal("loop path accepted")
	}
	_, loops := d.Dropped()
	if loops != 1 {
		t.Errorf("loop drops = %d", loops)
	}
	if d.NumUniquePaths() != 0 {
		t.Error("loop path stored")
	}
}

func TestLinkVisibilityCounts(t *testing.T) {
	d := New(asrel.IPv4)
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(d.AddPath([]asrel.ASN{1, 2, 3}, nil, 0, false))
	check(d.AddPath([]asrel.ASN{4, 2, 3}, nil, 0, false))
	check(d.AddPath([]asrel.ASN{5, 2}, nil, 0, false))
	if got := d.LinkVisibility(asrel.Key(2, 3)); got != 2 {
		t.Errorf("vis(2-3) = %d, want 2", got)
	}
	if got := d.LinkVisibility(asrel.Key(9, 9)); got != 0 {
		t.Errorf("vis(absent) = %d", got)
	}
	g := d.Graph()
	if g.NumLinks() != 4 || !g.HasLink(5, 2) {
		t.Errorf("graph links = %d", g.NumLinks())
	}
	wantV := []asrel.ASN{1, 4, 5}
	if got := d.Vantages(); !reflect.DeepEqual(got, wantV) {
		t.Errorf("vantages = %v", got)
	}
}

func TestAddMRTFiltersPlane(t *testing.T) {
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	ts := testTime()
	pit := &mrt.PeerIndexTable{
		CollectorID: mrt.CollectorAddr(1),
		ViewName:    "t",
		Peers: []mrt.Peer{{
			BGPID: netip.MustParseAddr("10.0.0.1"),
			Addr:  netip.MustParseAddr("10.0.0.1"),
			ASN:   1,
		}},
	}
	if err := w.WritePeerIndexTable(ts, pit); err != nil {
		t.Fatal(err)
	}
	// One v4 RIB and one v6 RIB.
	var e4 mrt.RIBEntry
	e4.OriginatedAt = ts
	e4.Attrs.HasOrigin = true
	e4.Attrs.ASPath = bgp.Sequence(1, 2, 3)
	e4.Attrs.NextHop = netip.MustParseAddr("10.0.0.1")
	if err := w.WriteRIB(ts, &mrt.RIB{Prefix: netip.MustParsePrefix("10.9.0.0/24"), Entries: []mrt.RIBEntry{e4}}); err != nil {
		t.Fatal(err)
	}
	var e6 mrt.RIBEntry
	e6.OriginatedAt = ts
	e6.Attrs.HasOrigin = true
	e6.Attrs.ASPath = bgp.Sequence(1, 2, 5)
	e6.Attrs.MPReach = &bgp.MPReach{NextHop: []netip.Addr{netip.MustParseAddr("fd00::1")}}
	if err := w.WriteRIB(ts, &mrt.RIB{Prefix: netip.MustParsePrefix("2001:db8:7::/48"), Entries: []mrt.RIBEntry{e6}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	d6 := New(asrel.IPv6)
	if err := d6.AddMRT(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	if origin, ok := walk(d6)[0].Origin(); d6.NumUniquePaths() != 1 || !ok || origin != 5 {
		t.Errorf("v6 ingest = %d paths", d6.NumUniquePaths())
	}
	d4 := New(asrel.IPv4)
	if err := d4.AddMRT(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	if origin, ok := walk(d4)[0].Origin(); d4.NumUniquePaths() != 1 || !ok || origin != 3 {
		t.Errorf("v4 ingest = %d paths", d4.NumUniquePaths())
	}
}

func TestAddMRTDropsSetPaths(t *testing.T) {
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	ts := testTime()
	pit := &mrt.PeerIndexTable{
		CollectorID: mrt.CollectorAddr(1),
		ViewName:    "t",
		Peers: []mrt.Peer{{
			BGPID: netip.MustParseAddr("10.0.0.1"),
			Addr:  netip.MustParseAddr("10.0.0.1"),
			ASN:   1,
		}},
	}
	if err := w.WritePeerIndexTable(ts, pit); err != nil {
		t.Fatal(err)
	}
	var e mrt.RIBEntry
	e.OriginatedAt = ts
	e.Attrs.HasOrigin = true
	e.Attrs.ASPath = bgp.ASPath{
		{Type: bgp.SegSequence, ASNs: []asrel.ASN{1, 2}},
		{Type: bgp.SegSet, ASNs: []asrel.ASN{3, 4}},
	}
	e.Attrs.NextHop = netip.MustParseAddr("10.0.0.1")
	if err := w.WriteRIB(ts, &mrt.RIB{Prefix: netip.MustParsePrefix("10.9.0.0/24"), Entries: []mrt.RIBEntry{e}}); err != nil {
		t.Fatal(err)
	}
	d := New(asrel.IPv4)
	if err := d.AddMRT(&buf); err != nil {
		t.Fatal(err)
	}
	sets, _ := d.Dropped()
	if sets != 1 || d.NumUniquePaths() != 0 {
		t.Errorf("sets dropped = %d, unique = %d", sets, d.NumUniquePaths())
	}
}

func TestMergeMatchesSequential(t *testing.T) {
	// Two "archives" of raw observations with overlapping paths: shard
	// ingestion + Merge must reproduce sequential ingestion exactly.
	archives := [][][]asrel.ASN{
		{
			{1, 2, 3},
			{1, 2, 2, 3},
			{4, 2, 5},
			{4, 4, 1},
		},
		{
			{1, 2, 3}, // dup path
			{1, 2, 3}, // dup path again
			{6, 2, 3}, // new path, shared link
			{7, 8, 7}, // loop, dropped
		},
	}
	seq := New(asrel.IPv4)
	for _, arch := range archives {
		for _, path := range arch {
			_ = seq.AddPath(path, nil, 0, false)
		}
	}
	merged := New(asrel.IPv4)
	for _, arch := range archives {
		shard := New(asrel.IPv4)
		for _, path := range arch {
			_ = shard.AddPath(path, nil, 0, false)
		}
		if err := merged.Merge(shard); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := walk(merged), walk(seq); !reflect.DeepEqual(want, got) {
		t.Errorf("merged paths differ from sequential:\nseq: %+v\nmerged: %+v", want, got)
	}
	if !reflect.DeepEqual(seq.Links(), merged.Links()) {
		t.Errorf("merged links differ: %v vs %v", seq.Links(), merged.Links())
	}
	for _, k := range seq.Links() {
		if seq.LinkVisibility(k) != merged.LinkVisibility(k) {
			t.Errorf("visibility(%s) = %d sequential, %d merged", k, seq.LinkVisibility(k), merged.LinkVisibility(k))
		}
	}
	if seq.NumObservations() != merged.NumObservations() {
		t.Errorf("observations = %d sequential, %d merged", seq.NumObservations(), merged.NumObservations())
	}
	s1, l1 := seq.Dropped()
	s2, l2 := merged.Dropped()
	if s1 != s2 || l1 != l2 {
		t.Errorf("drop tallies = (%d,%d) sequential, (%d,%d) merged", s1, l1, s2, l2)
	}
	if seq.ActiveRefs() != merged.ActiveRefs() {
		t.Errorf("active references = %d sequential, %d merged", seq.ActiveRefs(), merged.ActiveRefs())
	}
	if seq.NumUniquePaths() != merged.NumUniquePaths() {
		t.Errorf("unique paths = %d sequential, %d merged", seq.NumUniquePaths(), merged.NumUniquePaths())
	}
}

func TestMergeRejectsPlaneMismatch(t *testing.T) {
	d4, d6 := New(asrel.IPv4), New(asrel.IPv6)
	if err := d4.Merge(d6); err == nil {
		t.Error("cross-plane merge accepted")
	}
	if err := d4.Merge(nil); err != nil {
		t.Errorf("nil merge = %v", err)
	}
}

func TestDualStack(t *testing.T) {
	d4 := New(asrel.IPv4)
	d6 := New(asrel.IPv6)
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(d4.AddPath([]asrel.ASN{1, 2, 3}, nil, 0, false))
	check(d4.AddPath([]asrel.ASN{1, 4}, nil, 0, false))
	check(d6.AddPath([]asrel.ASN{2, 3}, nil, 0, false))
	check(d6.AddPath([]asrel.ASN{5, 6}, nil, 0, false))
	want := []asrel.LinkKey{asrel.Key(2, 3)}
	if got := DualStack(d4, d6); !reflect.DeepEqual(got, want) {
		t.Errorf("DualStack = %v", got)
	}
	if got := DualStack(d6, d4); !reflect.DeepEqual(got, want) {
		t.Errorf("DualStack argument order matters: %v", got)
	}
}
