package communities

import (
	"iter"
	"slices"
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
	"hybridrel/internal/community"
	"hybridrel/internal/dataset"
	"hybridrel/internal/gen"
	"hybridrel/internal/infer"
	"hybridrel/internal/testutil"
)

func obs(path []asrel.ASN, comms ...bgp.Community) *dataset.PathObs {
	return &dataset.PathObs{Vantage: path[0], Path: path, Communities: comms}
}

func dict(t *testing.T, entries map[bgp.Community]community.Meaning) *community.Dictionary {
	t.Helper()
	d := community.NewDictionary()
	for c, m := range entries {
		d.Set(c, m)
	}
	return d
}

func TestInferAttribution(t *testing.T) {
	// Path 10 ← 20 ← 30 (10 is vantage, 30 origin). AS20 tags "from
	// customer" for the route it got from 30, AS10 tags "from peer" for
	// the route from 20.
	d := dict(t, map[bgp.Community]community.Meaning{
		bgp.MakeCommunity(20, 100): community.MeaningCustomer,
		bgp.MakeCommunity(10, 77):  community.MeaningPeer,
	})
	paths := []*dataset.PathObs{
		obs([]asrel.ASN{10, 20, 30}, bgp.MakeCommunity(20, 100), bgp.MakeCommunity(10, 77)),
	}
	res := Infer(slices.Values(paths), d)
	if res.Table.Get(20, 30) != asrel.P2C {
		t.Errorf("rel(20,30) = %s, want p2c", res.Table.Get(20, 30))
	}
	if res.Table.Get(10, 20) != asrel.P2P {
		t.Errorf("rel(10,20) = %s, want p2p", res.Table.Get(10, 20))
	}
	if res.TaggedPaths != 1 {
		t.Errorf("TaggedPaths = %d", res.TaggedPaths)
	}
}

func TestInferSkipsUnusableTags(t *testing.T) {
	d := dict(t, map[bgp.Community]community.Meaning{
		bgp.MakeCommunity(99, 1):  community.MeaningCustomer, // 99 not on path
		bgp.MakeCommunity(30, 2):  community.MeaningCustomer, // origin: unattributable
		bgp.MakeCommunity(20, 90): community.MeaningTE,       // TE, not a relationship
	})
	paths := []*dataset.PathObs{
		obs([]asrel.ASN{10, 20, 30},
			bgp.MakeCommunity(99, 1),
			bgp.MakeCommunity(30, 2),
			bgp.MakeCommunity(20, 90),
			bgp.MakeCommunity(20, 12345), // undocumented
		),
	}
	res := Infer(slices.Values(paths), d)
	if res.Table.Len() != 0 {
		t.Errorf("table = %d entries, want 0", res.Table.Len())
	}
	if res.OffPathTags != 2 {
		t.Errorf("OffPathTags = %d, want 2", res.OffPathTags)
	}
	if res.TERoutes != 1 {
		t.Errorf("TERoutes = %d", res.TERoutes)
	}
	if res.TaggedPaths != 0 {
		t.Errorf("TaggedPaths = %d", res.TaggedPaths)
	}
}

func TestInferVoteAggregation(t *testing.T) {
	// Conflicting evidence across paths for link 20-30: two customer
	// tags and one peer tag → transit wins.
	d := dict(t, map[bgp.Community]community.Meaning{
		bgp.MakeCommunity(20, 100): community.MeaningCustomer,
		bgp.MakeCommunity(20, 200): community.MeaningPeer,
	})
	paths := []*dataset.PathObs{
		obs([]asrel.ASN{11, 20, 30}, bgp.MakeCommunity(20, 100)),
		obs([]asrel.ASN{12, 20, 30}, bgp.MakeCommunity(20, 100)),
		obs([]asrel.ASN{13, 20, 30}, bgp.MakeCommunity(20, 200)),
	}
	res := Infer(slices.Values(paths), d)
	if got := res.Table.Get(20, 30); got != asrel.P2C {
		t.Errorf("rel(20,30) = %s, want p2c by majority", got)
	}
	v, ok := res.Votes.Get(asrel.Key(20, 30))
	if !ok || v.Total() != 3 {
		t.Errorf("votes = %+v", v)
	}
}

// TestInferAgainstGroundTruth is the package's core property: on the
// synthetic world, every relationship the miner asserts must match the
// ground truth of the corresponding plane (communities never lie in the
// model; coverage, not correctness, is the limiting factor).
func TestInferAgainstGroundTruth(t *testing.T) {
	w, err := testutil.BuildWorld(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		ds    func() iter.Seq[*dataset.PathObs]
		truth *asrel.Table
		links []asrel.LinkKey
	}{
		{"v6", w.D6.Paths, w.In.Truth6, w.D6.Links()},
		{"v4", w.D4.Paths, w.In.Truth4, w.D4.Links()},
	} {
		res := Infer(tc.ds(), w.Dict)
		s := infer.ScoreTable(res.Table, tc.truth, tc.links)
		if s.Classified == 0 {
			t.Fatalf("%s: nothing classified", tc.name)
		}
		if s.Accuracy() < 0.999 {
			t.Errorf("%s: accuracy = %.4f (%d/%d); communities must not misinfer",
				tc.name, s.Accuracy(), s.Correct, s.Classified)
		}
		cov := s.Coverage()
		if cov < 0.40 || cov > 0.95 {
			t.Errorf("%s: coverage = %.3f, want realistic partial coverage", tc.name, cov)
		}
		t.Logf("%s: coverage %.1f%%, accuracy %.2f%%", tc.name, 100*cov, 100*s.Accuracy())
	}
}

func TestInferEmptyInputs(t *testing.T) {
	res := Infer(dataset.New(asrel.IPv6).Paths(), community.NewDictionary())
	if res.Table.Len() != 0 || res.TaggedPaths != 0 {
		t.Error("empty inference produced output")
	}
}

// pathVotesSink counts emissions; a package variable keeps the test's
// emit function free of captures.
var pathVotesSink int

// TestPathVotesNoAlloc pins PathVotes at zero allocations: tagger
// attribution scans the path instead of indexing it in a map, so with
// an emit that captures nothing a path costs no heap at all. The path
// is longer than a map index would fit in stack storage.
func TestPathVotesNoAlloc(t *testing.T) {
	d := dict(t, map[bgp.Community]community.Meaning{
		bgp.MakeCommunity(20, 100): community.MeaningCustomer,
		bgp.MakeCommunity(10, 77):  community.MeaningPeer,
		bgp.MakeCommunity(30, 2):   community.MeaningCustomer,
		bgp.MakeCommunity(20, 90):  community.MeaningTE,
		bgp.MakeCommunity(99, 1):   community.MeaningCustomer, // 99 is off the path
	})
	p := obs([]asrel.ASN{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120},
		bgp.MakeCommunity(20, 100), bgp.MakeCommunity(10, 77),
		bgp.MakeCommunity(30, 2), bgp.MakeCommunity(99, 1), bgp.MakeCommunity(20, 90))
	emit := func(asrel.ASN, asrel.ASN, asrel.Rel) { pathVotesSink++ }
	allocs := testing.AllocsPerRun(200, func() {
		PathVotes(p, d, emit)
	})
	if allocs != 0 {
		t.Errorf("PathVotes allocates %.1f objects per path, want 0", allocs)
	}
	pathVotesSink = 0
	contributed, offPath, hasTE := PathVotes(p, d, emit)
	if !contributed || offPath != 1 || !hasTE || pathVotesSink != 3 {
		t.Errorf("PathVotes = %v, %d offpath, TE %v, %d votes; want true, 1, true, 3", contributed, offPath, hasTE, pathVotesSink)
	}
}
