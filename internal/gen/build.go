package gen

import (
	"math"
	"math/rand"
	"sort"

	"hybridrel/internal/asrel"
	"hybridrel/internal/topology"
)

// Build generates a complete synthetic Internet from cfg. It is
// deterministic: equal configs produce identical Internets.
func Build(cfg Config) (*Internet, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	b := &builder{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		in: &Internet{
			Cfg:           cfg,
			ASes:          make(map[asrel.ASN]*AS, cfg.NumASes),
			Graph4:        topology.New(),
			Graph6:        topology.New(),
			Truth4:        asrel.NewTable(),
			Truth6:        asrel.NewTable(),
			VantageLocPrf: make(map[asrel.ASN]bool),
		},
	}
	b.makeASes()
	b.buildV4()
	b.buildV6()
	b.plantHybrids()
	b.assignLeaks()
	b.assignPolicies()
	b.assignPrefixes()
	b.pickVantages()
	return b.in, nil
}

type builder struct {
	cfg Config
	rng *rand.Rand
	in  *Internet
	// customers counts p2c edges per AS for preferential attachment.
	customers map[asrel.ASN]int
	transits  []asrel.ASN    // tier-1 + transit ASes in creation order
	layers    [4][]asrel.ASN // [0] = tier-1, [1..3] = transit layers
	stubs     []asrel.ASN
}

func (b *builder) makeASes() {
	in := b.in
	b.customers = make(map[asrel.ASN]int, b.cfg.NumASes)
	for i := 1; i <= b.cfg.NumASes; i++ {
		asn := asrel.ASN(i)
		a := &AS{ASN: asn}
		switch {
		case i <= b.cfg.NumTier1:
			a.Tier = Tier1
			in.Tier1 = append(in.Tier1, asn)
			b.layers[0] = append(b.layers[0], asn)
		case b.rng.Float64() < b.cfg.TransitFraction:
			a.Tier = Tier2
			// The transit hierarchy: national carriers, regional
			// networks, access networks.
			r := b.rng.Float64()
			switch {
			case r < 0.15:
				a.Layer = 1
			case r < 0.50:
				a.Layer = 2
			default:
				a.Layer = 3
			}
			b.layers[a.Layer] = append(b.layers[a.Layer], asn)
		default:
			a.Tier = TierStub
			b.stubs = append(b.stubs, asn)
		}
		if a.Tier != TierStub {
			b.transits = append(b.transits, asn)
		}
		in.ASes[asn] = a
		in.Order = append(in.Order, asn)
		in.Graph4.AddNode(asn)
	}
}

// providerClasses returns the candidate classes an AS buys transit from,
// in preference order with selection weights. Class 0 is tier-1.
func providerClasses(a *AS) []struct {
	class int
	mult  float64
} {
	type cw = struct {
		class int
		mult  float64
	}
	switch {
	case a.Tier == Tier2 && a.Layer == 1:
		return []cw{{0, 1.0}}
	case a.Tier == Tier2 && a.Layer == 2:
		return []cw{{1, 1.0}, {0, 0.15}}
	case a.Tier == Tier2 && a.Layer == 3:
		// Access networks chain below regionals and below each other —
		// the deep tails of the 2010 (IPv6 especially) hierarchy.
		return []cw{{2, 1.0}, {3, 0.45}, {1, 0.12}}
	default: // stub
		return []cw{{3, 1.0}, {2, 0.30}, {1, 0.05}, {0, 0.01}}
	}
}

// buildV4 wires the IPv4 plane: the tier-1 clique, layered provider
// links chosen by sub-linear preferential attachment (providers always
// have a smaller ASN, so the v4 transit hierarchy is acyclic), lateral
// transit peering, stub IXP peering, and the free-transit hub's wide
// peering mesh.
func (b *builder) buildV4() {
	in := b.in
	// Tier-1 clique.
	for i, a := range in.Tier1 {
		for _, z := range in.Tier1[i+1:] {
			in.Graph4.AddLink(a, z)
			in.Truth4.Set(a, z, asrel.P2P)
		}
	}
	// Provider links.
	for _, asn := range in.Order {
		a := in.ASes[asn]
		if a.Tier == Tier1 {
			continue
		}
		n := 1
		for n < b.cfg.MaxProviders && b.rng.Float64() < b.cfg.ExtraProviderProb {
			n++
		}
		for _, p := range b.pickProviders(a, n) {
			if in.Graph4.AddLink(p, asn) {
				in.Truth4.Set(p, asn, asrel.P2C)
				b.customers[p]++
			}
		}
	}
	// Lateral transit peering within each layer.
	for _, t := range b.transits {
		at := in.ASes[t]
		if at.Tier == Tier1 {
			continue
		}
		k := poisson(b.rng, b.cfg.TransitPeerAvg)
		peersOK := func(c asrel.ASN) bool {
			ac := in.ASes[c]
			return c != t && ac.Tier == Tier2 && ac.Layer == at.Layer &&
				!in.Graph4.HasLink(t, c)
		}
		for j := 0; j < k; j++ {
			peer := b.weightedTransit(peersOK)
			if peer == 0 {
				break
			}
			in.Graph4.AddLink(t, peer)
			in.Truth4.Set(t, peer, asrel.P2P)
		}
	}
	// Stub IXP peering.
	for _, s := range b.stubs {
		if b.rng.Float64() >= b.cfg.StubPeerProb || len(b.stubs) < 2 {
			continue
		}
		o := b.stubs[b.rng.Intn(len(b.stubs))]
		if o != s && !in.Graph4.HasLink(s, o) {
			in.Graph4.AddLink(s, o)
			in.Truth4.Set(s, o, asrel.P2P)
		}
	}
	b.placeHub()
}

// placeHub selects the free-transit hub — the largest national carrier —
// and gives it the wide settlement-free IPv4 peering mesh that its free
// IPv6 transit offer will later convert into H1 hybrids.
func (b *builder) placeHub() {
	in := b.in
	pool := b.layers[1]
	if len(pool) == 0 {
		pool = b.layers[2]
	}
	if len(pool) == 0 {
		return
	}
	hub := pool[0]
	for _, c := range pool {
		if b.customers[c] > b.customers[hub] || (b.customers[c] == b.customers[hub] && c < hub) {
			hub = c
		}
	}
	in.FreeTransitHub = hub
	// The open-peering carrier is the next-largest national network: in
	// IPv6 it converts most of its customer relationships into
	// settlement-free peerings (the H2 population).
	for _, c := range pool {
		if c == hub {
			continue
		}
		if in.OpenPeer == 0 || b.customers[c] > b.customers[in.OpenPeer] ||
			(b.customers[c] == b.customers[in.OpenPeer] && c < in.OpenPeer) {
			in.OpenPeer = c
		}
	}
	// Peer the hub with the fattest access aggregators (layer 3): wide,
	// flat customer bases, historically the main takers of free IPv6
	// transit.
	var cands []asrel.ASN
	for _, c := range b.layers[3] {
		if c != hub && !in.Graph4.HasLink(hub, c) {
			cands = append(cands, c)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if b.customers[cands[i]] != b.customers[cands[j]] {
			return b.customers[cands[i]] > b.customers[cands[j]]
		}
		return cands[i] < cands[j]
	})
	added := 0
	for _, c := range cands {
		if added >= b.cfg.HubPeerings {
			break
		}
		in.Graph4.AddLink(hub, c)
		in.Truth4.Set(hub, c, asrel.P2P)
		added++
	}
}

// pickProviders selects n distinct providers for a from its preferred
// layers, all with smaller ASNs, weighted by sub-linear preferential
// attachment. When the preferred classes have no earlier member yet, the
// search relaxes upward and ultimately lands on a tier-1.
func (b *builder) pickProviders(a *AS, n int) []asrel.ASN {
	type cand struct {
		asn  asrel.ASN
		mult float64
	}
	var cands []cand
	for _, cw := range providerClasses(a) {
		for _, t := range b.layers[cw.class] {
			if t >= a.ASN {
				break
			}
			cands = append(cands, cand{asn: t, mult: cw.mult})
		}
	}
	if len(cands) == 0 {
		// Nothing from the preferred classes exists yet: climb to any
		// earlier transit, then to the tier-1s.
		for _, t := range b.transits {
			if t >= a.ASN {
				break
			}
			cands = append(cands, cand{asn: t, mult: 1})
		}
		if len(cands) == 0 {
			for _, t := range b.in.Tier1 {
				cands = append(cands, cand{asn: t, mult: 1})
			}
		}
	}
	weight := func(c cand) float64 {
		base := float64(b.customers[c.asn] + 1)
		if b.in.ASes[c.asn].Tier == Tier1 {
			base = float64(b.customers[c.asn] + 25)
		}
		return c.mult * math.Pow(base, 0.72)
	}
	chosen := make([]asrel.ASN, 0, n)
	taken := make(map[asrel.ASN]bool, n)
	for len(chosen) < n {
		total := 0.0
		for _, c := range cands {
			if !taken[c.asn] {
				total += weight(c)
			}
		}
		if total <= 0 {
			break
		}
		x := b.rng.Float64() * total
		for _, c := range cands {
			if taken[c.asn] {
				continue
			}
			x -= weight(c)
			if x <= 0 {
				chosen = append(chosen, c.asn)
				taken[c.asn] = true
				break
			}
		}
	}
	return chosen
}

// weightedTransit picks one transit AS weighted by customer count among
// those satisfying ok, or 0 when none qualifies.
func (b *builder) weightedTransit(ok func(asrel.ASN) bool) asrel.ASN {
	total := 0.0
	for _, c := range b.transits {
		if ok(c) {
			total += float64(b.customers[c] + 1)
		}
	}
	if total <= 0 {
		return 0
	}
	x := b.rng.Float64() * total
	for _, c := range b.transits {
		if !ok(c) {
			continue
		}
		x -= float64(b.customers[c] + 1)
		if x <= 0 {
			return c
		}
	}
	return 0
}

// buildV6 derives the IPv6 plane: per-tier enablement, sampled
// dual-stack sessions, forced v6 transit for otherwise-orphaned ASes
// (the tunnel-broker effect), the dense v6-only peering mesh, and the
// tier-1 peering dispute.
func (b *builder) buildV6() {
	in := b.in
	for _, asn := range in.Order {
		a := in.ASes[asn]
		switch a.Tier {
		case Tier1:
			a.IPv6 = true
		case Tier2:
			a.IPv6 = b.rng.Float64() < b.cfg.V6TransitProb
		default:
			a.IPv6 = b.rng.Float64() < b.cfg.V6StubProb
		}
	}
	if in.FreeTransitHub != 0 {
		// The free-transit hub is the most aggressive IPv6 deployer.
		in.ASes[in.FreeTransitHub].IPv6 = true
	}
	if in.OpenPeer != 0 {
		in.ASes[in.OpenPeer].IPv6 = true
	}
	if b.cfg.Dispute {
		// The paper's footnote describes the dispute between AS6939 and
		// AS174: *both transit-free in the IPv6 plane*. The free-transit
		// hub is the first disputant; the other is a tier-1.
		if in.FreeTransitHub != 0 {
			in.DisputeA = in.FreeTransitHub
		} else {
			in.DisputeA = in.Tier1[0]
		}
		// The second disputant is the latest (smallest-cone) tier-1:
		// the real disputants' *exclusive* customer cones were a small
		// slice of the IPv6 world.
		for i := len(in.Tier1) - 1; i >= 0; i-- {
			if in.Tier1[i] != in.DisputeA {
				in.DisputeB = in.Tier1[i]
				break
			}
		}
	}
	// Dual-stack sessions. The hub is transit-free in IPv6: its v4
	// provider links never carry a v6 session (it reaches the v6 world
	// entirely over peering), and the disputants share no v6 link.
	hub := in.FreeTransitHub
	for _, k := range in.Graph4.LinkKeys() {
		if !in.ASes[k.Lo].IPv6 || !in.ASes[k.Hi].IPv6 {
			continue
		}
		if b.cfg.Dispute && k == asrel.Key(in.DisputeA, in.DisputeB) {
			continue // the peering dispute: no v6 session at all
		}
		if hub != 0 && k.Contains(hub) && in.Truth4.Get(hub, k.Other(hub)) == asrel.C2P {
			continue // the hub buys no IPv6 transit
		}
		// The tier-1 clique was fully dual-stacked by 2010 (the dispute
		// pair excepted, handled above).
		if in.ASes[k.Lo].Tier == Tier1 && in.ASes[k.Hi].Tier == Tier1 {
			in.Graph6.AddLink(k.Lo, k.Hi)
			in.Truth6.SetKey(k, in.Truth4.GetKey(k))
			continue
		}
		// IPv6 multihoming lagged far behind IPv4 in 2010: transit
		// sessions dual-stack less often than peerings, leaving the v6
		// hierarchy closer to single-homed chains.
		p := b.cfg.DualStackLinkProb
		if in.Truth4.GetKey(k).Transit() {
			p *= 0.6
		}
		if b.rng.Float64() < p {
			in.Graph6.AddLink(k.Lo, k.Hi)
			in.Truth6.SetKey(k, in.Truth4.GetKey(k))
		}
	}
	// The hub peers settlement-free with every tier-1 except its
	// disputant — that is how a transit-free non-tier-1 reaches the
	// whole v6 Internet.
	if hub != 0 {
		for _, t := range in.Tier1 {
			if t == in.DisputeB || in.Graph6.HasLink(hub, t) {
				continue
			}
			in.Graph6.AddLink(hub, t)
			in.Truth6.Set(hub, t, asrel.P2P)
			if in.Graph4.Degree(hub) > 0 && in.Graph4.HasLink(hub, t) {
				// The v4 session is the hub's paid transit; the v6
				// session is a settlement-free peering — a ready-made
				// H2 hybrid (v4 transit / v6 p2p).
				b.recordHybrid(asrel.Key(hub, t))
			}
		}
	}
	// Every non-tier-1 v6 AS needs at least one v6 provider: first try
	// re-adding a skipped dual-stack provider link, then fall back to a
	// v6-only transit link (tunnel) from a layer-appropriate earlier v6
	// transit AS. The hub is exempt: it is transit-free by design.
	for _, asn := range in.Order {
		a := in.ASes[asn]
		if !a.IPv6 || a.Tier == Tier1 || asn == hub {
			continue
		}
		if len(in.related(asrel.IPv6, asn, asrel.C2P)) > 0 {
			continue
		}
		fixed := false
		for _, p := range in.related(asrel.IPv4, asn, asrel.C2P) {
			if in.ASes[p].IPv6 && in.Graph6.AddLink(p, asn) {
				in.Truth6.Set(p, asn, asrel.P2C)
				fixed = true
				break
			}
		}
		if fixed {
			continue
		}
		provider := b.v6TunnelProvider(a)
		if provider != 0 && in.Graph6.AddLink(provider, asn) {
			in.Truth6.Set(provider, asn, asrel.P2C)
		}
	}
	// IPv6-only peering mesh among v6 transit ASes. Links that exist in
	// v4 are excluded: they would silently become dual-stack links with
	// a conflicting relationship.
	var v6transit []asrel.ASN
	for _, t := range b.transits {
		if in.ASes[t].IPv6 {
			v6transit = append(v6transit, t)
		}
	}
	for i := 0; i < b.cfg.V6OnlyPeerings && len(v6transit) > 2; i++ {
		x := v6transit[b.rng.Intn(len(v6transit))]
		y := v6transit[b.rng.Intn(len(v6transit))]
		if x == y || in.Graph4.HasLink(x, y) || in.Graph6.HasLink(x, y) {
			continue
		}
		in.Graph6.AddLink(x, y)
		in.Truth6.Set(x, y, asrel.P2P)
	}
}

// v6TunnelProvider picks a v6 transit provider with a smaller ASN from
// the AS's natural provider layers (keeping the base hierarchy deep and
// acyclic), or a non-disputant tier-1 for the earliest ASes.
func (b *builder) v6TunnelProvider(a *AS) asrel.ASN {
	for _, cw := range providerClasses(a) {
		var cands []asrel.ASN
		for _, t := range b.layers[cw.class] {
			if t >= a.ASN {
				break
			}
			if b.in.ASes[t].IPv6 {
				cands = append(cands, t)
			}
		}
		if len(cands) > 0 {
			return cands[b.rng.Intn(len(cands))]
		}
	}
	for _, t := range b.in.Tier1 {
		if t != b.in.DisputeA && t != b.in.DisputeB {
			return t
		}
	}
	return 0
}

// plantHybrids rewrites the IPv6 relationship of a HybridFraction share
// of dual-stack links: HybridH1Frac of them v4-p2p→v6-transit (H1), the
// rest v4-transit→v6-p2p (H2), and exactly one v4-p2c→v6-c2p reversal
// (H3), mirroring §3 of the paper. H1 selection is strongly biased
// toward the free-transit hub's peering links — the documented origin
// of most real H1 hybrids — and otherwise weighted by combined v6
// degree, so hybrids concentrate on tier-1/tier-2 ASes.
func (b *builder) plantHybrids() {
	in := b.in
	duals := in.DualStackLinks()
	if len(duals) == 0 {
		return
	}
	target := int(math.Round(b.cfg.HybridFraction * float64(len(duals))))
	if target == 0 {
		return
	}
	wantH1 := int(math.Round(b.cfg.HybridH1Frac * float64(target)))
	wantH3 := 0
	if target > wantH1 {
		wantH3 = 1
	}
	wantH2 := target - wantH1 - wantH3

	var peers, transits []asrel.LinkKey
	for _, k := range duals {
		// The second disputant (the Cogent analogue) refuses any IPv6
		// arrangement change — that refusal keeps the v6 plane
		// partitioned — so its links never turn hybrid. The hub's v4
		// peerings, by contrast, are exactly where H1 hybrids come
		// from; only its transit links are off-limits (H2/H3 would
		// cost it its v6 transit-free status).
		if b.cfg.Dispute && k.Contains(in.DisputeB) {
			continue
		}
		switch in.Truth4.GetKey(k) {
		case asrel.P2P:
			// Tier-1s do not take transit from each other in any plane:
			// the clique stays settlement-free.
			if in.ASes[k.Lo].Tier == Tier1 && in.ASes[k.Hi].Tier == Tier1 {
				continue
			}
			peers = append(peers, k)
		case asrel.P2C, asrel.C2P:
			if in.FreeTransitHub != 0 && k.Contains(in.FreeTransitHub) {
				continue
			}
			transits = append(transits, k)
		}
	}
	weight := func(k asrel.LinkKey) float64 {
		w := float64(in.Graph6.Degree(k.Lo) + in.Graph6.Degree(k.Hi))
		if in.FreeTransitHub != 0 && k.Contains(in.FreeTransitHub) {
			w *= b.cfg.HubH1Bias
		}
		return w
	}
	// H2 selection leans toward links at the very top of the hierarchy
	// (tier-1 / national carriers): their relaxed IPv6 peerings are the
	// mis-inferred deep branches whose pruning drives Figure 2's
	// diameter drop.
	top := func(a asrel.ASN) bool {
		as := in.ASes[a]
		return as.Tier == Tier1 || as.Layer == 1
	}
	weightH2 := func(k asrel.LinkKey) float64 {
		w := weight(k)
		if top(k.Lo) && top(k.Hi) {
			w *= 8
		}
		// The open-peering carrier's customer links dominate the H2
		// population: its deep v4 cone is what single-plane inference
		// wrongly keeps in the v6 customer trees.
		if in.OpenPeer != 0 && k.Contains(in.OpenPeer) {
			w *= 12
		}
		return w
	}

	// H1: settled v4 peers exchanging free/trial IPv6 transit. The hub
	// is always the provider on its links; elsewhere the higher-degree
	// side provides.
	for _, k := range b.weightedLinks(peers, wantH1, weight, nil) {
		provider, customer := k.Lo, k.Hi
		switch {
		case in.FreeTransitHub != 0 && k.Contains(in.FreeTransitHub):
			provider = in.FreeTransitHub
			customer = k.Other(provider)
		case in.Graph6.Degree(k.Hi) > in.Graph6.Degree(k.Lo):
			provider, customer = k.Hi, k.Lo
		}
		in.Truth6.Set(provider, customer, asrel.P2C)
		b.recordHybrid(k)
	}
	// Free transit is a *second* connection: most of the hub's new
	// customers also keep (or light up) the IPv6 session of a paid
	// provider, so the hub's exclusive customer cone stays a modest
	// slice of the v6 world — as the real dispute's blast radius was.
	if in.FreeTransitHub != 0 {
		for _, h := range in.Hybrids {
			if !h.Key.Contains(in.FreeTransitHub) {
				continue
			}
			cust := h.Key.Other(in.FreeTransitHub)
			if len(in.related(asrel.IPv6, cust, asrel.C2P)) > 1 {
				continue
			}
			if b.rng.Float64() >= 0.8 {
				continue // a few networks do run IPv6 on free transit alone
			}
			for _, p := range in.related(asrel.IPv4, cust, asrel.C2P) {
				if in.ASes[p].IPv6 && p != in.FreeTransitHub && in.Graph6.AddLink(p, cust) {
					in.Truth6.Set(p, cust, asrel.P2C)
					break
				}
			}
		}
	}
	// H2: v4 customers granted settlement-free IPv6 peering. The
	// customer must keep another v6 provider or it would lose all v6
	// transit.
	okH2 := func(k asrel.LinkKey) bool {
		cust := k.Lo
		if in.Truth4.GetKey(k) == asrel.P2C { // Lo is the provider
			cust = k.Hi
		}
		return len(in.related(asrel.IPv6, cust, asrel.C2P)) > 1
	}
	for _, k := range b.weightedLinks(transits, wantH2, weightH2, okH2) {
		// Re-check at apply time: an earlier flip in this batch may have
		// taken the customer's last spare provider.
		if !okH2(k) {
			continue
		}
		in.Truth6.SetKey(k, asrel.P2P)
		b.recordHybrid(k)
	}
	// H3: the single role reversal. The v4 provider gains a v6 provider
	// (so it must not be a tier-1, which stays transit-free), and the v4
	// customer loses this provider, so it must keep another one.
	okH3 := func(k asrel.LinkKey) bool {
		prov, cust := k.Lo, k.Hi
		if in.Truth4.GetKey(k) == asrel.C2P { // Hi is the provider
			prov, cust = k.Hi, k.Lo
		}
		if in.ASes[prov].Tier == Tier1 {
			return false
		}
		return len(in.related(asrel.IPv6, cust, asrel.C2P)) > 1
	}
	for _, k := range b.weightedLinks(transits, wantH3, weight, okH3) {
		if !okH3(k) {
			continue
		}
		in.Truth6.SetKey(k, in.Truth4.GetKey(k).Invert())
		b.recordHybrid(k)
	}
	sort.Slice(in.Hybrids, func(i, j int) bool {
		a, z := in.Hybrids[i].Key, in.Hybrids[j].Key
		if a.Lo != z.Lo {
			return a.Lo < z.Lo
		}
		return a.Hi < z.Hi
	})
}

func (b *builder) recordHybrid(k asrel.LinkKey) {
	in := b.in
	in.Hybrids = append(in.Hybrids, PlantedHybrid{
		Key:   k,
		V4:    in.Truth4.GetKey(k),
		V6:    in.Truth6.GetKey(k),
		Class: asrel.Classify(in.Truth4.GetKey(k), in.Truth6.GetKey(k)),
	})
}

// weightedLinks samples up to n distinct links weighted by weight,
// skipping (and never retrying) links already hybrid or rejected by ok.
func (b *builder) weightedLinks(pool []asrel.LinkKey, n int, weight func(asrel.LinkKey) float64, ok func(asrel.LinkKey) bool) []asrel.LinkKey {
	if n <= 0 {
		return nil
	}
	taken := make(map[asrel.LinkKey]bool, len(b.in.Hybrids))
	for _, h := range b.in.Hybrids {
		taken[h.Key] = true
	}
	var out []asrel.LinkKey
	for attempts := 0; len(out) < n && attempts < 4*n+64; attempts++ {
		total := 0.0
		for _, k := range pool {
			if !taken[k] {
				total += weight(k)
			}
		}
		if total <= 0 {
			break
		}
		x := b.rng.Float64() * total
		for _, k := range pool {
			if taken[k] {
				continue
			}
			x -= weight(k)
			if x <= 0 {
				taken[k] = true // either used or permanently rejected
				if ok == nil || ok(k) {
					out = append(out, k)
				}
				break
			}
		}
	}
	return out
}

// poisson draws a Poisson variate by Knuth's method (fine for the small
// means used here).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	limit := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}
