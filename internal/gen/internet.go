package gen

import (
	"fmt"
	"net/netip"

	"hybridrel/internal/asrel"
	"hybridrel/internal/topology"
)

// Tier is an AS's generated position in the customer-provider
// hierarchy.
type Tier uint8

// Tier values, from the top of the hierarchy down. The zero value is
// unassigned.
const (
	// Tier1: transit-free — customers but no providers.
	Tier1 Tier = iota + 1
	// Tier2: both providers and customers (a transit network).
	Tier2
	// TierStub: providers or peers only, no customers.
	TierStub
)

// AS is one synthetic autonomous system with its ground-truth role and
// its routing policies.
type AS struct {
	ASN  asrel.ASN
	Tier Tier
	// Layer refines Tier2 into the transit hierarchy: 1 = national
	// carrier (buys from tier-1), 2 = regional (buys from layer 1),
	// 3 = access network (buys from layer 2). Zero for tier-1s and
	// stubs.
	Layer int
	// IPv6 reports whether the AS participates in the IPv6 plane.
	IPv6 bool
	// Prefixes4 / Prefixes6 are the prefixes the AS originates.
	Prefixes4 []netip.Prefix
	Prefixes6 []netip.Prefix
	// Policy is the AS's community scheme and LocPrf bands.
	Policy Policy
}

// Policy is an AS's BGP policy surface as relevant to the paper: the
// communities it attaches on ingress, whether it scrubs communities on
// export, its LocPrf bands per neighbor class, and its traffic
// engineering tags.
type Policy struct {
	// DefinesCommunities: the AS tags routes on ingress with a
	// relationship community from its scheme.
	DefinesCommunities bool
	// Documented: the scheme appears in the (synthetic) IRR. Undocumented
	// schemes produce communities the miner cannot interpret.
	Documented bool
	// Strips: the AS removes all communities when exporting routes.
	Strips bool
	// CustomerTag / PeerTag / ProviderTag are the community values the
	// AS attaches for routes learned from a customer / peer / provider.
	CustomerTag uint16
	PeerTag     uint16
	ProviderTag uint16
	// TETags are the AS's traffic-engineering community values (backup,
	// prepend requests); routes carrying one have a tweaked LocPrf.
	TETags []uint16
	// LocCustomer / LocPeer / LocProvider are the AS's LocPrf bands.
	// Ground truth maintains LocCustomer > LocPeer > LocProvider.
	LocCustomer uint32
	LocPeer     uint32
	LocProvider uint32
	// Dialect selects the IRR remark syntax used to document the scheme.
	Dialect int
}

// TagFor returns the community value the AS attaches for a route
// learned over the given relationship (the relationship is from the AS
// toward the neighbor it learned from: P2C means "learned from my
// customer").
func (p *Policy) TagFor(relToNeighbor asrel.Rel) (uint16, bool) {
	if !p.DefinesCommunities {
		return 0, false
	}
	switch relToNeighbor {
	case asrel.P2C:
		return p.CustomerTag, true
	case asrel.P2P:
		return p.PeerTag, true
	case asrel.C2P:
		return p.ProviderTag, true
	}
	return 0, false
}

// LocPrfFor returns the AS's base LocPrf for a route learned over the
// given relationship class.
func (p *Policy) LocPrfFor(relToNeighbor asrel.Rel) uint32 {
	switch relToNeighbor {
	case asrel.P2C:
		return p.LocCustomer
	case asrel.P2P:
		return p.LocPeer
	case asrel.C2P:
		return p.LocProvider
	default:
		return p.LocPeer
	}
}

// Leak is a scoped route-leak rule: AS At re-exports routes learned from
// neighbor Via to neighbor To even when its export policy would not.
type Leak struct {
	At  asrel.ASN
	Via asrel.ASN
	To  asrel.ASN
}

// Internet is the generated ground-truth world.
type Internet struct {
	Cfg Config
	// ASes maps every ASN to its AS record; Order lists ASNs in
	// creation order (ascending).
	ASes  map[asrel.ASN]*AS
	Order []asrel.ASN
	// Graph4 / Graph6 are the per-plane graphs, frozen once Build has
	// planted every link; Truth4 / Truth6 the ground-truth relationship
	// tables.
	Graph4, Graph6 *topology.Graph
	Truth4, Truth6 *asrel.Table
	// Tier1 lists the clique members.
	Tier1 []asrel.ASN
	// Hybrids lists the dual-stack links whose IPv6 relationship was
	// changed away from the IPv4 one, with their planted class.
	Hybrids []PlantedHybrid
	// DisputeA / DisputeB are the two tier-1s disconnected in IPv6.
	DisputeA, DisputeB asrel.ASN
	// FreeTransitHub is the large AS handing out free IPv6 transit to
	// its settled IPv4 peers — the source of most H1 hybrids (the
	// Hurricane Electric analogue).
	FreeTransitHub asrel.ASN
	// OpenPeer is the large carrier with an open IPv6 peering policy:
	// many of its IPv4 customers peer with it settlement-free in IPv6,
	// making its customer links the bulk of the H2 hybrids.
	OpenPeer asrel.ASN
	// Leaks are the active route-leak rules (IPv6 plane).
	Leaks []Leak
	// Vantages are the collector peer ASes; VantageLocPrf marks those
	// whose feed carries LOCAL_PREF.
	Vantages      []asrel.ASN
	VantageLocPrf map[asrel.ASN]bool
}

// PlantedHybrid records one planted hybrid link and its ground truth.
type PlantedHybrid struct {
	Key   asrel.LinkKey
	V4    asrel.Rel // Lo→Hi orientation
	V6    asrel.Rel // Lo→Hi orientation
	Class asrel.HybridClass
}

// AS returns the AS record for asn, or nil when absent.
func (in *Internet) AS(asn asrel.ASN) *AS { return in.ASes[asn] }

// GraphFor returns the link graph of the given plane.
func (in *Internet) GraphFor(af asrel.AF) *topology.Graph {
	if af == asrel.IPv6 {
		return in.Graph6
	}
	return in.Graph4
}

// TruthFor returns the ground-truth relationship table of the plane.
func (in *Internet) TruthFor(af asrel.AF) *asrel.Table {
	if af == asrel.IPv6 {
		return in.Truth6
	}
	return in.Truth4
}

// PrefixesFor returns the prefixes the AS originates in the plane.
func (a *AS) PrefixesFor(af asrel.AF) []netip.Prefix {
	if af == asrel.IPv6 {
		return a.Prefixes6
	}
	return a.Prefixes4
}

// DualStackLinks returns the canonical keys of links present in both
// planes, in deterministic order.
func (in *Internet) DualStackLinks() []asrel.LinkKey {
	var out []asrel.LinkKey
	for _, k := range in.Graph6.LinkKeys() {
		if in.Graph4.HasLink(k.Lo, k.Hi) {
			out = append(out, k)
		}
	}
	return out
}

// v4Prefix derives the i-th synthetic IPv4 prefix (a /24 from 10/8).
func v4Prefix(i int) netip.Prefix {
	if i < 0 || i >= 1<<16 {
		panic(fmt.Sprintf("gen: v4 prefix index %d out of range", i))
	}
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
}

// v6Prefix derives the i-th synthetic IPv6 prefix (a /48 from the
// 2001:db8::/32 documentation block).
func v6Prefix(i int) netip.Prefix {
	if i < 0 || i >= 1<<16 {
		panic(fmt.Sprintf("gen: v6 prefix index %d out of range", i))
	}
	var raw [16]byte
	raw[0], raw[1] = 0x20, 0x01
	raw[2], raw[3] = 0x0d, 0xb8
	raw[4], raw[5] = byte(i>>8), byte(i)
	return netip.PrefixFrom(netip.AddrFrom16(raw), 48)
}
