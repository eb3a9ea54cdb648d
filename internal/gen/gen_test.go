package gen

import (
	"net/netip"
	"reflect"
	"testing"

	"hybridrel/internal/asrel"
)

func buildSmall(t *testing.T) *Internet {
	t.Helper()
	in, err := Build(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestBuildValidation(t *testing.T) {
	bad := SmallConfig()
	bad.NumTier1 = 1
	if _, err := Build(bad); err == nil {
		t.Error("NumTier1=1 accepted")
	}
	bad = SmallConfig()
	bad.NumASes = 70000
	if _, err := Build(bad); err == nil {
		t.Error("NumASes beyond 16-bit community space accepted")
	}
	bad = SmallConfig()
	bad.HybridFraction = 0.9
	if _, err := Build(bad); err == nil {
		t.Error("absurd HybridFraction accepted")
	}
	bad = SmallConfig()
	bad.NumVantages = 0
	if _, err := Build(bad); err == nil {
		t.Error("zero vantages accepted")
	}
}

func TestBuildDeterminism(t *testing.T) {
	a := buildSmall(t)
	b := buildSmall(t)
	if !reflect.DeepEqual(a.Graph4.LinkKeys(), b.Graph4.LinkKeys()) {
		t.Error("v4 link sets differ between identical builds")
	}
	if !reflect.DeepEqual(a.Graph6.LinkKeys(), b.Graph6.LinkKeys()) {
		t.Error("v6 link sets differ between identical builds")
	}
	if !reflect.DeepEqual(a.Hybrids, b.Hybrids) {
		t.Error("hybrid sets differ between identical builds")
	}
	if !reflect.DeepEqual(a.Vantages, b.Vantages) {
		t.Error("vantage sets differ between identical builds")
	}
	if !reflect.DeepEqual(a.Leaks, b.Leaks) {
		t.Error("leak sets differ between identical builds")
	}
	// A different seed must actually change something.
	cfg := SmallConfig()
	cfg.Seed = 43
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Graph4.LinkKeys(), c.Graph4.LinkKeys()) {
		t.Error("different seeds produced identical v4 topologies")
	}
}

func TestTier1Clique(t *testing.T) {
	in := buildSmall(t)
	if len(in.Tier1) != in.Cfg.NumTier1 {
		t.Fatalf("tier-1 count = %d", len(in.Tier1))
	}
	for i, a := range in.Tier1 {
		for _, z := range in.Tier1[i+1:] {
			if !in.Graph4.HasLink(a, z) {
				t.Errorf("clique link %s-%s missing in v4", a, z)
			}
			if in.Truth4.Get(a, z) != asrel.P2P {
				t.Errorf("clique link %s-%s not p2p", a, z)
			}
		}
	}
}

func TestEveryLinkHasTruth(t *testing.T) {
	in := buildSmall(t)
	for _, k := range in.Graph4.LinkKeys() {
		if !in.Truth4.GetKey(k).Known() {
			t.Fatalf("v4 link %s without ground truth", k)
		}
	}
	for _, k := range in.Graph6.LinkKeys() {
		if !in.Truth6.GetKey(k).Known() {
			t.Fatalf("v6 link %s without ground truth", k)
		}
	}
}

// providers counts asn's providers in the af plane of the built world.
func providers(in *Internet, af asrel.AF, asn asrel.ASN) int {
	n := 0
	for _, k := range in.GraphFor(af).LinkKeys() {
		if k.Contains(asn) && in.TruthFor(af).Get(asn, k.Other(asn)) == asrel.C2P {
			n++
		}
	}
	return n
}

func TestProvidersExist(t *testing.T) {
	in := buildSmall(t)
	for _, asn := range in.Order {
		a := in.ASes[asn]
		if a.Tier == Tier1 {
			continue
		}
		if providers(in, asrel.IPv4, asn) == 0 {
			t.Errorf("%s has no v4 provider", asn)
		}
		if asn == in.FreeTransitHub {
			// The hub is transit-free in IPv6 by design.
			if providers(in, asrel.IPv6, asn) != 0 {
				t.Errorf("hub %s has a v6 provider", asn)
			}
			continue
		}
		if a.IPv6 && providers(in, asrel.IPv6, asn) == 0 {
			t.Errorf("%s has no v6 provider", asn)
		}
	}
}

func TestDispute(t *testing.T) {
	in := buildSmall(t)
	if in.DisputeA == 0 || in.DisputeB == 0 {
		t.Fatal("disputants not set")
	}
	// The first disputant is the free-transit hub (paper footnote: both
	// AS6939 and AS174 are transit-free in the IPv6 plane).
	if in.FreeTransitHub != 0 && in.DisputeA != in.FreeTransitHub {
		t.Errorf("DisputeA = %s, want the hub %s", in.DisputeA, in.FreeTransitHub)
	}
	if in.Graph6.HasLink(in.DisputeA, in.DisputeB) {
		t.Error("disputants linked in v6 despite the dispute")
	}
	// Relaxer leaks bridge the dispute in both directions.
	var ab, ba int
	for _, l := range in.Leaks {
		if l.Via == in.DisputeA && l.To == in.DisputeB {
			ab++
		}
		if l.Via == in.DisputeB && l.To == in.DisputeA {
			ba++
		}
	}
	if ab == 0 || ba == 0 {
		t.Errorf("relaxer leaks missing: A→B %d, B→A %d", ab, ba)
	}
}

func TestLeaksReferenceNeighbors(t *testing.T) {
	in := buildSmall(t)
	if len(in.Leaks) == 0 {
		t.Fatal("no leaks generated")
	}
	for _, l := range in.Leaks {
		if !in.Graph6.HasLink(l.At, l.Via) {
			t.Errorf("leak at %s via non-neighbor %s", l.At, l.Via)
		}
		if !in.Graph6.HasLink(l.At, l.To) {
			t.Errorf("leak at %s to non-neighbor %s", l.At, l.To)
		}
		if l.Via == l.To {
			t.Errorf("degenerate leak at %s", l.At)
		}
	}
}

func TestHybridPlanting(t *testing.T) {
	in := buildSmall(t)
	duals := in.DualStackLinks()
	if len(duals) == 0 {
		t.Fatal("no dual-stack links")
	}
	if len(in.Hybrids) == 0 {
		t.Fatal("no hybrids planted")
	}
	frac := float64(len(in.Hybrids)) / float64(len(duals))
	if frac < 0.07 || frac > 0.20 {
		t.Errorf("hybrid fraction = %.3f, want near %.2f", frac, in.Cfg.HybridFraction)
	}
	var h1, h2, h3 int
	for _, h := range in.Hybrids {
		v4 := in.Truth4.GetKey(h.Key)
		v6 := in.Truth6.GetKey(h.Key)
		if v4 != h.V4 || v6 != h.V6 {
			t.Errorf("hybrid %s record does not match tables", h.Key)
		}
		got := asrel.Classify(v4, v6)
		if got != h.Class || got == asrel.NotHybrid {
			t.Errorf("hybrid %s class = %s (recorded %s)", h.Key, got, h.Class)
		}
		switch got {
		case asrel.HybridPeerTransit:
			h1++
		case asrel.HybridTransitPeer:
			h2++
		case asrel.HybridReversed:
			h3++
		}
	}
	if h3 > 1 {
		t.Errorf("planted %d H3 reversals, want at most 1", h3)
	}
	h1frac := float64(h1) / float64(len(in.Hybrids))
	if h1frac < 0.5 || h1frac > 0.85 {
		t.Errorf("H1 share = %.2f, want near %.2f", h1frac, in.Cfg.HybridH1Frac)
	}
	if h2 == 0 {
		t.Error("no H2 hybrids planted")
	}
}

func TestNonHybridDualLinksAgree(t *testing.T) {
	in := buildSmall(t)
	hybrid := make(map[asrel.LinkKey]bool)
	for _, h := range in.Hybrids {
		hybrid[h.Key] = true
	}
	for _, k := range in.DualStackLinks() {
		if hybrid[k] {
			continue
		}
		if in.Truth4.GetKey(k) != in.Truth6.GetKey(k) {
			t.Errorf("non-hybrid dual link %s disagrees: v4=%s v6=%s",
				k, in.Truth4.GetKey(k), in.Truth6.GetKey(k))
		}
	}
}

func TestPolicies(t *testing.T) {
	in := buildSmall(t)
	adopters := 0
	for _, asn := range in.Order {
		p := in.ASes[asn].Policy
		if p.LocCustomer <= p.LocPeer || p.LocPeer <= p.LocProvider {
			t.Fatalf("%s LocPrf bands not ordered: %d/%d/%d",
				asn, p.LocCustomer, p.LocPeer, p.LocProvider)
		}
		if p.DefinesCommunities {
			adopters++
			if p.CustomerTag == p.PeerTag || p.PeerTag == p.ProviderTag || p.CustomerTag == p.ProviderTag {
				t.Fatalf("%s has colliding relationship tags", asn)
			}
			if tag, ok := p.TagFor(asrel.P2C); !ok || tag != p.CustomerTag {
				t.Fatalf("TagFor(P2C) broken for %s", asn)
			}
			if _, ok := p.TagFor(asrel.S2S); ok {
				t.Fatalf("TagFor(S2S) should be undefined")
			}
			for _, te := range p.TETags {
				if te == p.CustomerTag || te == p.PeerTag || te == p.ProviderTag {
					t.Fatalf("%s TE tag collides with relationship tag", asn)
				}
			}
		}
		if p.LocPrfFor(asrel.P2C) != p.LocCustomer || p.LocPrfFor(asrel.C2P) != p.LocProvider {
			t.Fatalf("LocPrfFor broken for %s", asn)
		}
	}
	if adopters < in.Cfg.NumASes/4 {
		t.Errorf("only %d community adopters", adopters)
	}
}

func TestPrefixes(t *testing.T) {
	in := buildSmall(t)
	seen4 := make(map[netip.Prefix]bool)
	seen6 := make(map[netip.Prefix]bool)
	for _, asn := range in.Order {
		a := in.ASes[asn]
		if len(a.Prefixes4) == 0 {
			t.Fatalf("%s has no v4 prefix", asn)
		}
		for _, p := range a.Prefixes4 {
			if seen4[p] {
				t.Fatalf("duplicate v4 prefix %v", p)
			}
			seen4[p] = true
			if !p.Addr().Is4() {
				t.Fatalf("v4 prefix %v is not IPv4", p)
			}
		}
		if a.IPv6 && len(a.Prefixes6) == 0 {
			t.Fatalf("v6 AS %s has no v6 prefix", asn)
		}
		if !a.IPv6 && len(a.Prefixes6) != 0 {
			t.Fatalf("non-v6 AS %s originates v6 prefixes", asn)
		}
		for _, p := range a.Prefixes6 {
			if seen6[p] {
				t.Fatalf("duplicate v6 prefix %v", p)
			}
			seen6[p] = true
			if !p.Addr().Is6() {
				t.Fatalf("v6 prefix %v is not IPv6", p)
			}
		}
		if a.PrefixesFor(asrel.IPv4)[0] != a.Prefixes4[0] {
			t.Fatal("PrefixesFor(IPv4) broken")
		}
	}
	// Some large AS should have extra v6 prefixes.
	extra := false
	for _, asn := range in.Order {
		if len(in.ASes[asn].Prefixes6) > 1 {
			extra = true
		}
	}
	if !extra {
		t.Error("no AS received extra v6 prefixes")
	}
}

func TestVantages(t *testing.T) {
	in := buildSmall(t)
	if len(in.Vantages) != in.Cfg.NumVantages {
		t.Fatalf("vantage count = %d, want %d", len(in.Vantages), in.Cfg.NumVantages)
	}
	seen := make(map[asrel.ASN]bool)
	locprf := 0
	hasA, hasB := false, false
	for _, v := range in.Vantages {
		if seen[v] {
			t.Fatalf("duplicate vantage %s", v)
		}
		seen[v] = true
		if !in.ASes[v].IPv6 {
			t.Errorf("vantage %s is not IPv6-capable", v)
		}
		if in.VantageLocPrf[v] {
			locprf++
		}
		if v == in.DisputeA {
			hasA = true
		}
		if v == in.DisputeB {
			hasB = true
		}
	}
	if !hasA || !hasB {
		t.Error("disputants not among vantages")
	}
	if locprf == 0 {
		t.Error("no LocPrf feeds selected")
	}
}

func TestV6SubsetInvariants(t *testing.T) {
	in := buildSmall(t)
	dual, v6only := 0, 0
	for _, k := range in.Graph6.LinkKeys() {
		if !in.ASes[k.Lo].IPv6 || !in.ASes[k.Hi].IPv6 {
			t.Fatalf("v6 link %s touches a non-v6 AS", k)
		}
		if in.Graph4.HasLink(k.Lo, k.Hi) {
			dual++
		} else {
			v6only++
		}
	}
	if dual == 0 || v6only == 0 {
		t.Errorf("link mix degenerate: dual=%d v6only=%d", dual, v6only)
	}
	if got := len(in.DualStackLinks()); got != dual {
		t.Errorf("DualStackLinks = %d, counted %d", got, dual)
	}
}

func TestGraphAndTruthAccessors(t *testing.T) {
	in := buildSmall(t)
	if in.GraphFor(asrel.IPv4) != in.Graph4 || in.GraphFor(asrel.IPv6) != in.Graph6 {
		t.Error("GraphFor broken")
	}
	if in.TruthFor(asrel.IPv4) != in.Truth4 || in.TruthFor(asrel.IPv6) != in.Truth6 {
		t.Error("TruthFor broken")
	}
	if in.AS(in.Order[0]) == nil || in.AS(99999) != nil {
		t.Error("AS accessor broken")
	}
}

func TestPrefixHelpersPanicOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("v4Prefix out of range did not panic")
		}
	}()
	v4Prefix(1 << 16)
}
