package gen

import (
	"sort"

	"hybridrel/internal/asrel"
)

// assignLeaks installs the two classes of route-leak rules in the IPv6
// plane: relaxers, which restore reachability across the tier-1 dispute
// by re-exporting each disputant's routes to the other (the paper's
// "relaxation of the valley-free rule ... to expand the reachability of
// IPv6 prefixes"), and noise leakers, whose scoped leaks create valley
// paths with valley-free alternatives.
func (b *builder) assignLeaks() {
	in := b.in
	if b.cfg.Dispute {
		relaxers := b.findOrMakeRelaxers()
		for _, r := range relaxers {
			in.Leaks = append(in.Leaks,
				Leak{At: r, Via: in.DisputeA, To: in.DisputeB},
				Leak{At: r, Via: in.DisputeB, To: in.DisputeA},
			)
		}
	}
	// Noise leakers: transit v6 ASes re-exporting a peer- or
	// provider-learned route to another peer or provider.
	var cands []asrel.ASN
	for _, t := range b.transits {
		a := in.ASes[t]
		if !a.IPv6 || a.Tier == Tier1 {
			continue
		}
		up := append(b.related(asrel.IPv6, t, asrel.C2P), b.related(asrel.IPv6, t, asrel.P2P)...)
		if len(up) >= 2 {
			cands = append(cands, t)
		}
	}
	for i := 0; i < b.cfg.NumNoiseLeakers && len(cands) > 0; i++ {
		at := cands[b.rng.Intn(len(cands))]
		up := append(b.related(asrel.IPv6, at, asrel.C2P), b.related(asrel.IPv6, at, asrel.P2P)...)
		sort.Slice(up, func(x, y int) bool { return up[x] < up[y] })
		via := up[b.rng.Intn(len(up))]
		to := up[b.rng.Intn(len(up))]
		if via == to {
			continue
		}
		in.Leaks = append(in.Leaks, Leak{At: at, Via: via, To: to})
	}
}

// findOrMakeRelaxers returns ASes that are v6 customers of both
// disputants, buying the missing transit links where necessary.
func (b *builder) findOrMakeRelaxers() []asrel.ASN {
	in := b.in
	var out []asrel.ASN
	for _, t := range b.transits {
		a := in.ASes[t]
		if !a.IPv6 || a.Tier == Tier1 {
			continue
		}
		if in.Truth6.Get(t, in.DisputeA) == asrel.C2P && in.Truth6.Get(t, in.DisputeB) == asrel.C2P {
			out = append(out, t)
			if len(out) >= b.cfg.NumRelaxers {
				return out
			}
		}
	}
	// Not enough natural dual customers: upgrade v6 transit ASes into
	// customers of both disputants.
	for _, t := range b.transits {
		if len(out) >= b.cfg.NumRelaxers {
			break
		}
		a := in.ASes[t]
		if !a.IPv6 || a.Tier == Tier1 {
			continue
		}
		already := false
		for _, r := range out {
			if r == t {
				already = true
			}
		}
		if already {
			continue
		}
		okA := in.Truth6.Get(t, in.DisputeA) == asrel.C2P
		okB := in.Truth6.Get(t, in.DisputeB) == asrel.C2P
		if !okA && b.g6.has(t, in.DisputeA) {
			continue // linked with a non-transit relationship; skip
		}
		if !okB && b.g6.has(t, in.DisputeB) {
			continue
		}
		if !okA {
			b.g6.add(in.DisputeA, t)
			in.Truth6.Set(in.DisputeA, t, asrel.P2C)
		}
		if !okB {
			b.g6.add(in.DisputeB, t)
			in.Truth6.Set(in.DisputeB, t, asrel.P2C)
		}
		out = append(out, t)
	}
	return out
}

// assignPolicies draws each AS's community scheme, scrubbing behaviour,
// LocPrf bands and TE tags. Band ordering LocCustomer > LocPeer >
// LocProvider always holds; the absolute values differ per AS, which is
// why the paper needs the communities "Rosetta stone" to interpret them.
func (b *builder) assignPolicies() {
	in := b.in
	for _, asn := range in.Order {
		a := in.ASes[asn]
		p := &a.Policy
		adopt := b.cfg.CommunityAdoptStub
		if a.Tier != TierStub {
			adopt = b.cfg.CommunityAdoptTransit
		}
		p.DefinesCommunities = b.rng.Float64() < adopt
		p.Documented = p.DefinesCommunities && b.rng.Float64() < b.cfg.IRRDocumentedProb
		p.Strips = a.Tier == Tier2 && b.rng.Float64() < b.cfg.CommunityStripProb
		p.Dialect = b.rng.Intn(3)

		base := []uint16{100, 500, 1000, 2000, 3000}[b.rng.Intn(5)]
		step := []uint16{1, 10, 100}[b.rng.Intn(3)]
		p.CustomerTag = base
		p.PeerTag = base + step
		p.ProviderTag = base + 2*step
		nTE := 2 + b.rng.Intn(2)
		for i := 0; i < nTE; i++ {
			p.TETags = append(p.TETags, 9000+uint16(b.rng.Intn(90))*10+uint16(i))
		}

		p.LocCustomer = 250 + uint32(b.rng.Intn(150))
		p.LocPeer = 150 + uint32(b.rng.Intn(95))
		p.LocProvider = 50 + uint32(b.rng.Intn(95))
	}
}

// assignPrefixes gives every AS one IPv4 prefix, every v6 AS one IPv6
// prefix, and the highest-degree v6 ASes a few extra v6 prefixes.
func (b *builder) assignPrefixes() {
	in := b.in
	v4idx, v6idx := 0, 0
	for _, asn := range in.Order {
		a := in.ASes[asn]
		a.Prefixes4 = append(a.Prefixes4, v4Prefix(v4idx))
		v4idx++
		if a.IPv6 {
			a.Prefixes6 = append(a.Prefixes6, v6Prefix(v6idx))
			v6idx++
		}
	}
	if b.cfg.ExtraPrefixLargeAS > 0 {
		var v6ases []asrel.ASN
		for _, asn := range in.Order {
			if in.ASes[asn].IPv6 {
				v6ases = append(v6ases, asn)
			}
		}
		sort.Slice(v6ases, func(i, j int) bool {
			di, dj := b.g6.degree(v6ases[i]), b.g6.degree(v6ases[j])
			if di != dj {
				return di > dj
			}
			return v6ases[i] < v6ases[j]
		})
		top := len(v6ases) / 20
		if top > 200 {
			top = 200
		}
		for _, asn := range v6ases[:top] {
			for e := 0; e < b.cfg.ExtraPrefixLargeAS && v6idx < 1<<16; e++ {
				in.ASes[asn].Prefixes6 = append(in.ASes[asn].Prefixes6, v6Prefix(v6idx))
				v6idx++
			}
		}
	}
}

// pickVantages selects the collector peers: both disputants (collectors
// peered with both AS6939 and AS174 in 2010), then a transit-weighted
// sample of the remaining v6 ASes. VantageLocPrfFrac of the vantages
// provide iBGP-style feeds carrying LOCAL_PREF.
func (b *builder) pickVantages() {
	in := b.in
	want := b.cfg.NumVantages
	seen := make(map[asrel.ASN]bool)
	add := func(asn asrel.ASN) {
		if !seen[asn] && len(in.Vantages) < want {
			seen[asn] = true
			in.Vantages = append(in.Vantages, asn)
		}
	}
	if b.cfg.Dispute {
		add(in.DisputeA)
		add(in.DisputeB)
	}
	var cands []asrel.ASN
	var weights []float64
	for _, asn := range in.Order {
		a := in.ASes[asn]
		if !a.IPv6 || seen[asn] {
			continue
		}
		cands = append(cands, asn)
		w := 1.0
		if a.Tier == Tier2 {
			w = 4.0
		} else if a.Tier == Tier1 {
			w = 2.0
		}
		weights = append(weights, w)
	}
	for len(in.Vantages) < want && len(cands) > 0 {
		total := 0.0
		for i, c := range cands {
			if !seen[c] {
				total += weights[i]
			}
		}
		if total <= 0 {
			break
		}
		x := b.rng.Float64() * total
		for i, c := range cands {
			if seen[c] {
				continue
			}
			x -= weights[i]
			if x <= 0 {
				add(c)
				break
			}
		}
	}
	for i, v := range in.Vantages {
		if float64(i) < b.cfg.VantageLocPrfFrac*float64(len(in.Vantages)) {
			in.VantageLocPrf[v] = true
		}
	}
	sort.Slice(in.Vantages, func(i, j int) bool { return in.Vantages[i] < in.Vantages[j] })
}
