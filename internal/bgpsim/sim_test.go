package bgpsim

import (
	"reflect"
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
	"hybridrel/internal/gen"
	"hybridrel/internal/topology"
)

// tiny builds a hand-wired Internet for propagation tests. Links and
// relationships are installed in both planes identically unless the test
// mutates one plane afterwards.
func tiny(links map[asrel.LinkKey]asrel.Rel, vantages ...asrel.ASN) *gen.Internet {
	in := &gen.Internet{
		Cfg:           gen.Config{TEProb: 0},
		ASes:          make(map[asrel.ASN]*gen.AS),
		Graph4:        topology.New(),
		Graph6:        topology.New(),
		Truth4:        asrel.NewTable(),
		Truth6:        asrel.NewTable(),
		VantageLocPrf: make(map[asrel.ASN]bool),
	}
	addAS := func(a asrel.ASN) {
		if in.ASes[a] == nil {
			in.ASes[a] = &gen.AS{ASN: a, IPv6: true, Tier: gen.Tier2}
			in.Order = append(in.Order, a)
			in.Graph4.AddNode(a)
			in.Graph6.AddNode(a)
		}
	}
	for k, r := range links {
		addAS(k.Lo)
		addAS(k.Hi)
		in.Graph4.AddLink(k.Lo, k.Hi)
		in.Graph6.AddLink(k.Lo, k.Hi)
		in.Truth4.SetKey(k, r)
		in.Truth6.SetKey(k, r)
	}
	in.Vantages = append(in.Vantages, vantages...)
	return in
}

// key builds a LinkKey with the relationship given in Lo→Hi orientation.
func key(lo, hi asrel.ASN) asrel.LinkKey { return asrel.Key(lo, hi) }

func TestPropagateChain(t *testing.T) {
	// 1 --p2c--> 2 --p2c--> 3,  1 --p2p-- 4,  4 --p2c--> 5
	in := tiny(map[asrel.LinkKey]asrel.Rel{
		key(1, 2): asrel.P2C,
		key(2, 3): asrel.P2C,
		key(1, 4): asrel.P2P,
		key(4, 5): asrel.P2C,
	})
	s := New(in, asrel.IPv4)
	res, err := s.Propagate(3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		as    asrel.ASN
		class Class
		path  []asrel.ASN
	}{
		{3, ClassCustomer, []asrel.ASN{3}},
		{2, ClassCustomer, []asrel.ASN{2, 3}},
		{1, ClassCustomer, []asrel.ASN{1, 2, 3}},
		{4, ClassPeer, []asrel.ASN{4, 1, 2, 3}},
		{5, ClassProvider, []asrel.ASN{5, 4, 1, 2, 3}},
	}
	for _, c := range cases {
		if got := res.ClassOf(c.as); got != c.class {
			t.Errorf("class(%s) = %s, want %s", c.as, got, c.class)
		}
		if got := res.PathTo(c.as); !reflect.DeepEqual(got, c.path) {
			t.Errorf("path(%s) = %v, want %v", c.as, got, c.path)
		}
	}
	if res.ReachableCount() != 5 {
		t.Errorf("ReachableCount = %d, want 5", res.ReachableCount())
	}
}

func TestPropagateValleyBlocked(t *testing.T) {
	// 10 <-p2c- 1 -p2p- 2 -p2p- 3 -p2c-> 30: no route crosses two
	// consecutive peering links.
	in := tiny(map[asrel.LinkKey]asrel.Rel{
		key(1, 10): asrel.P2C,
		key(1, 2):  asrel.P2P,
		key(2, 3):  asrel.P2P,
		key(3, 30): asrel.P2C,
	})
	s := New(in, asrel.IPv4)
	res, err := s.Propagate(30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Has(1) || res.Has(10) {
		t.Error("peer-learned route was re-exported to a peer")
	}
	if !res.Has(2) {
		t.Error("first peer did not learn the route")
	}
	// Provider-learned routes are not exported to peers either.
	res30 := mustPropagate(t, s, 10)
	if res30.Has(3) || res30.Has(30) {
		t.Error("customer cone escaped through a double peering")
	}
}

func mustPropagate(t *testing.T, s *Sim, origin asrel.ASN) *Result {
	t.Helper()
	res, err := s.Propagate(origin)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSelectionPrefersCustomerOverShorterPeer(t *testing.T) {
	// AS1 can reach origin 9 via a 3-hop customer chain (1→5→6→9) or a
	// 2-hop peer route (1-2, 2→9). Customer class must win.
	in := tiny(map[asrel.LinkKey]asrel.Rel{
		key(1, 5): asrel.P2C, // 5 is 1's customer
		key(5, 6): asrel.P2C,
		key(6, 9): asrel.P2C,
		key(1, 2): asrel.P2P,
		key(2, 9): asrel.P2C,
	})
	s := New(in, asrel.IPv4)
	res := mustPropagate(t, s, 9)
	if got := res.ClassOf(1); got != ClassCustomer {
		t.Fatalf("class(1) = %s, want customer", got)
	}
	want := []asrel.ASN{1, 5, 6, 9}
	if got := res.PathTo(1); !reflect.DeepEqual(got, want) {
		t.Errorf("path(1) = %v, want %v", got, want)
	}
}

func TestSelectionTiebreakLowestNeighbor(t *testing.T) {
	// Origin 9 reachable from 1 via two equal-length customer chains
	// through 3 and 2; the 2-side must win the tiebreak.
	in := tiny(map[asrel.LinkKey]asrel.Rel{
		key(1, 3): asrel.P2C,
		key(3, 9): asrel.P2C,
		key(1, 2): asrel.P2C,
		key(2, 9): asrel.P2C,
	})
	s := New(in, asrel.IPv4)
	res := mustPropagate(t, s, 9)
	want := []asrel.ASN{1, 2, 9}
	if got := res.PathTo(1); !reflect.DeepEqual(got, want) {
		t.Errorf("path(1) = %v, want %v", got, want)
	}
}

func TestLeakRestoresReachability(t *testing.T) {
	// Dispute analogue: tier-1s 1 and 2 are unlinked; 7 is a customer of
	// both; 20 is a stub under 2. Without the leak AS1 cannot reach 20;
	// with it, it can, over a valley path through 7.
	links := map[asrel.LinkKey]asrel.Rel{
		key(1, 7):  asrel.P2C,
		key(2, 7):  asrel.P2C,
		key(2, 20): asrel.P2C,
	}
	in := tiny(links)
	s := New(in, asrel.IPv6) // leaks only apply in the v6 plane
	res := mustPropagate(t, s, 20)
	if res.Has(1) {
		t.Fatal("AS1 reached the origin without any leak")
	}
	in.Leaks = []gen.Leak{{At: 7, Via: 2, To: 1}}
	s = New(in, asrel.IPv6)
	res = mustPropagate(t, s, 20)
	if !res.Has(1) {
		t.Fatal("leak did not restore reachability")
	}
	if got := res.ClassOf(1); got != ClassCustomer {
		t.Errorf("leaked route class at AS1 = %s, want customer (learned from its customer)", got)
	}
	want := []asrel.ASN{1, 7, 2, 20}
	if got := res.PathTo(1); !reflect.DeepEqual(got, want) {
		t.Errorf("leaked path = %v, want %v", got, want)
	}
	// The same leak must not apply in the IPv4 plane.
	s4 := New(in, asrel.IPv4)
	res4 := mustPropagate(t, s4, 20)
	if res4.Has(1) {
		t.Error("leak applied in the IPv4 plane")
	}
}

func TestPropagateUnknownOrigin(t *testing.T) {
	in := tiny(map[asrel.LinkKey]asrel.Rel{key(1, 2): asrel.P2C})
	s := New(in, asrel.IPv4)
	if _, err := s.Propagate(99); err == nil {
		t.Error("unknown origin accepted")
	}
}

func TestViewsCommunitiesAndLocPrf(t *testing.T) {
	// 40 (vantage) --c2p--> 30 --c2p--> ... wait: build 30 provider of
	// 40? We want: vantage 40 learns from provider 30, 30 learns from
	// customer 20, 20 originates. 30 tags, 40 tags, nobody strips.
	in := tiny(map[asrel.LinkKey]asrel.Rel{
		key(30, 40): asrel.P2C, // 30 is provider of 40
		key(20, 30): asrel.C2P, // 20 is customer of 30
	}, 40)
	in.VantageLocPrf[40] = true
	pol30 := &in.ASes[30].Policy
	pol30.DefinesCommunities = true
	pol30.CustomerTag, pol30.PeerTag, pol30.ProviderTag = 100, 200, 300
	pol40 := &in.ASes[40].Policy
	pol40.DefinesCommunities = true
	pol40.CustomerTag, pol40.PeerTag, pol40.ProviderTag = 1000, 2000, 3000
	pol40.LocCustomer, pol40.LocPeer, pol40.LocProvider = 350, 220, 90

	s := New(in, asrel.IPv4)
	res := mustPropagate(t, s, 20)
	views := s.Views(res)
	if len(views) != 1 {
		t.Fatalf("got %d views, want 1", len(views))
	}
	v := views[0]
	if !reflect.DeepEqual(v.Path, []asrel.ASN{40, 30, 20}) {
		t.Fatalf("path = %v", v.Path)
	}
	// 30 learned from its customer 20 → 30:100; 40 learned from its
	// provider 30 → 40:3000.
	want := []bgp.Community{bgp.MakeCommunity(30, 100), bgp.MakeCommunity(40, 3000)}
	if !reflect.DeepEqual(v.Communities, want) {
		t.Errorf("communities = %v, want %v", v.Communities, want)
	}
	if !v.HasLocPrf || v.LocPrf != 90 {
		t.Errorf("LocPrf = %d (has=%v), want 90 (provider band)", v.LocPrf, v.HasLocPrf)
	}
	if v.TE {
		t.Error("TE flagged with TEProb=0")
	}
}

func TestViewsStripping(t *testing.T) {
	// As above, but 40 scrubs communities on ingress: 30's tag is gone,
	// 40's own tag survives.
	in := tiny(map[asrel.LinkKey]asrel.Rel{
		key(30, 40): asrel.P2C,
		key(20, 30): asrel.C2P,
	}, 40)
	pol30 := &in.ASes[30].Policy
	pol30.DefinesCommunities = true
	pol30.CustomerTag = 100
	pol40 := &in.ASes[40].Policy
	pol40.DefinesCommunities = true
	pol40.ProviderTag = 3000
	pol40.Strips = true

	s := New(in, asrel.IPv4)
	views := s.Views(mustPropagate(t, s, 20))
	want := []bgp.Community{bgp.MakeCommunity(40, 3000)}
	if !reflect.DeepEqual(views[0].Communities, want) {
		t.Errorf("communities = %v, want only the vantage tag", views[0].Communities)
	}
}

func TestViewsSelfOrigin(t *testing.T) {
	in := tiny(map[asrel.LinkKey]asrel.Rel{
		key(30, 40): asrel.P2C,
	}, 40)
	in.VantageLocPrf[40] = true
	s := New(in, asrel.IPv4)
	views := s.Views(mustPropagate(t, s, 40))
	if len(views) != 1 {
		t.Fatalf("views = %d", len(views))
	}
	v := views[0]
	if !reflect.DeepEqual(v.Path, []asrel.ASN{40}) || len(v.Communities) != 0 {
		t.Errorf("self view = %+v", v)
	}
	if !v.HasLocPrf || v.LocPrf != 100 {
		t.Errorf("self LocPrf = %d", v.LocPrf)
	}
}

func TestViewsTEDeterministic(t *testing.T) {
	in := tiny(map[asrel.LinkKey]asrel.Rel{
		key(30, 40): asrel.P2C,
		key(20, 30): asrel.C2P,
	}, 40)
	in.Cfg.TEProb = 1.0 // force TE on every decision point
	pol40 := &in.ASes[40].Policy
	pol40.TETags = []uint16{9100, 9200}
	pol40.LocCustomer, pol40.LocPeer, pol40.LocProvider = 350, 220, 90
	in.VantageLocPrf[40] = true
	pol30 := &in.ASes[30].Policy
	pol30.TETags = []uint16{9500}

	s := New(in, asrel.IPv4)
	v1 := s.Views(mustPropagate(t, s, 20))[0]
	v2 := s.Views(mustPropagate(t, s, 20))[0]
	if !reflect.DeepEqual(v1, v2) {
		t.Error("TE decisions are not deterministic")
	}
	if !v1.TE {
		t.Fatal("TE not applied with TEProb=1")
	}
	// The LocPrf must be outside every base band.
	if v1.LocPrf == 350 || v1.LocPrf == 220 || v1.LocPrf == 90 {
		t.Errorf("TE LocPrf %d equals a base band value", v1.LocPrf)
	}
	// A TE community of the vantage must be present.
	foundTE := false
	for _, c := range v1.Communities {
		if c.ASN() == 40 && (c.Value() == 9100 || c.Value() == 9200) {
			foundTE = true
		}
	}
	if !foundTE {
		t.Errorf("TE community missing: %v", v1.Communities)
	}
}

func TestGeneratedInternetFullReachability(t *testing.T) {
	cfg := gen.SmallConfig()
	in, err := gen.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s4 := New(in, asrel.IPv4)
	// Sample a few origins across the ASN range: the v4 plane must be
	// fully connected under Gao–Rexford (tier-1 clique at the top).
	for _, origin := range []asrel.ASN{1, asrel.ASN(cfg.NumASes / 2), asrel.ASN(cfg.NumASes)} {
		res := mustPropagate(t, s4, origin)
		if res.ReachableCount() != s4.NumASes() {
			t.Errorf("v4 origin %s: %d/%d ASes have routes",
				origin, res.ReachableCount(), s4.NumASes())
		}
	}
	// The v6 plane with relaxer leaks must also be fully reachable.
	s6 := New(in, asrel.IPv6)
	nodes := in.Graph6.Nodes()
	for _, origin := range []asrel.ASN{nodes[0], nodes[len(nodes)/2], nodes[len(nodes)-1]} {
		res := mustPropagate(t, s6, origin)
		if res.ReachableCount() < s6.NumASes()*99/100 {
			t.Errorf("v6 origin %s: only %d/%d ASes have routes",
				origin, res.ReachableCount(), s6.NumASes())
		}
	}
}

func TestDisputePartitionWithoutLeaks(t *testing.T) {
	cfg := gen.SmallConfig()
	in, err := gen.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Strip every leak: the disputants must now be mutually unreachable.
	in.Leaks = nil
	s6 := New(in, asrel.IPv6)
	// Any prefix originated by DisputeB's exclusive customers (or B
	// itself) is invisible at A.
	res := mustPropagate(t, s6, in.DisputeB)
	if res.Has(in.DisputeA) {
		t.Error("disputant A reaches B without leaks")
	}
	res = mustPropagate(t, s6, in.DisputeA)
	if res.Has(in.DisputeB) {
		t.Error("disputant B reaches A without leaks")
	}
}

func TestViewsDeterminism(t *testing.T) {
	in, err := gen.Build(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(in, asrel.IPv6)
	origin := in.Graph6.Nodes()[0]
	a := s.Views(mustPropagate(t, s, origin))
	b := s.Views(mustPropagate(t, s, origin))
	if !reflect.DeepEqual(a, b) {
		t.Error("Views not deterministic across identical Propagate calls")
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Vantage >= a[i].Vantage {
			t.Fatal("views not in ascending vantage order")
		}
	}
}

func TestClassString(t *testing.T) {
	for _, c := range []Class{ClassNone, ClassProvider, ClassPeer, ClassCustomer} {
		if c.String() == "" {
			t.Error("empty class name")
		}
	}
}
