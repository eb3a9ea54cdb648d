package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"hybridrel/internal/asrel"
)

// Aggregator is the AGGREGATOR attribute payload.
type Aggregator struct {
	ASN  asrel.ASN
	Addr netip.Addr
}

// MPReach is the MP_REACH_NLRI attribute (RFC 4760). In RIB mode
// (Options.RIBMPReach, per RFC 6396 §4.3.4) only the next hop survives
// serialization; AFI is then recovered from the next-hop length.
type MPReach struct {
	AFI     uint16
	SAFI    uint8
	NextHop []netip.Addr // one or two (global + link-local) addresses
	NLRI    []netip.Prefix
}

// MPUnreach is the MP_UNREACH_NLRI attribute (RFC 4760).
type MPUnreach struct {
	AFI       uint16
	SAFI      uint8
	Withdrawn []netip.Prefix
}

// RawAttr preserves attributes this package does not interpret.
type RawAttr struct {
	Flags uint8
	Type  uint8
	Data  []byte
}

// Attrs is the decoded set of path attributes of one route.
type Attrs struct {
	Origin          Origin
	HasOrigin       bool
	ASPath          ASPath
	NextHop         netip.Addr // unset when absent
	MED             uint32
	HasMED          bool
	LocalPref       uint32
	HasLocalPref    bool
	AtomicAggregate bool
	Aggregator      *Aggregator
	Communities     []Community
	MPReach         *MPReach
	MPUnreach       *MPUnreach
	AS4Path         ASPath
	Unknown         []RawAttr

	// mpReachScratch survives Reset so steady-state decoding of RIB
	// entries (every IPv6 entry carries an MP_REACH next hop) allocates
	// nothing: DecodeAttrs points MPReach at it when the attribute is
	// present, reusing its slice capacity. A decoded Attrs therefore
	// aliases decoder-owned storage; callers that retain one past the
	// next DecodeAttrs call must Clone it first.
	mpReachScratch *MPReach
}

// Options selects wire-format variants.
type Options struct {
	// ASN4 selects four-byte AS numbers inside AS_PATH and AGGREGATOR
	// (RFC 6793 capable session, or any TABLE_DUMP_V2 RIB entry).
	ASN4 bool
	// RIBMPReach selects the abbreviated MP_REACH_NLRI encoding used in
	// TABLE_DUMP_V2 RIB entries: next-hop length and next hop only.
	RIBMPReach bool
}

// Reset clears the struct for reuse, retaining allocated slice capacity
// where possible.
func (a *Attrs) Reset() {
	a.Origin = 0
	a.HasOrigin = false
	a.ASPath = a.ASPath[:0]
	a.NextHop = netip.Addr{}
	a.MED = 0
	a.HasMED = false
	a.LocalPref = 0
	a.HasLocalPref = false
	a.AtomicAggregate = false
	a.Aggregator = nil
	a.Communities = a.Communities[:0]
	a.MPReach = nil
	a.MPUnreach = nil
	a.AS4Path = a.AS4Path[:0]
	a.Unknown = a.Unknown[:0]
}

// Clone deep-copies the attribute set, detaching it from any
// decoder-owned scratch storage. Empty slices normalize to nil so a
// clone's shape does not depend on the scratch history of its source.
func (a *Attrs) Clone() Attrs {
	out := *a
	out.mpReachScratch = nil
	out.ASPath = clonePath(a.ASPath)
	out.AS4Path = clonePath(a.AS4Path)
	out.Communities = cloneSlice(a.Communities)
	if a.Aggregator != nil {
		agg := *a.Aggregator
		out.Aggregator = &agg
	}
	if a.MPReach != nil {
		mp := *a.MPReach
		mp.NextHop = cloneSlice(a.MPReach.NextHop)
		mp.NLRI = cloneSlice(a.MPReach.NLRI)
		out.MPReach = &mp
	}
	if a.MPUnreach != nil {
		mp := *a.MPUnreach
		mp.Withdrawn = cloneSlice(a.MPUnreach.Withdrawn)
		out.MPUnreach = &mp
	}
	if len(a.Unknown) == 0 {
		out.Unknown = nil
	} else {
		out.Unknown = make([]RawAttr, len(a.Unknown))
		for i, u := range a.Unknown {
			out.Unknown[i] = RawAttr{Flags: u.Flags, Type: u.Type, Data: cloneSlice(u.Data)}
		}
	}
	return out
}

// cloneSlice copies s, mapping empty to nil.
func cloneSlice[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append([]T(nil), s...)
}

// clonePath deep-copies an AS path, mapping empty to nil.
func clonePath(p ASPath) ASPath {
	if len(p) == 0 {
		return nil
	}
	return p.Clone()
}

// EffectivePath merges AS_PATH and AS4_PATH per RFC 6793 §4.2.3: when an
// AS4_PATH is present and no longer than the AS_PATH, the leading excess
// of the AS_PATH is prepended to the AS4_PATH; otherwise the plain
// AS_PATH is returned.
func (a *Attrs) EffectivePath() ASPath {
	if len(a.AS4Path) == 0 {
		return a.ASPath
	}
	n2, n4 := a.ASPath.Len(), a.AS4Path.Len()
	if n4 > n2 {
		return a.ASPath // mangled by an old speaker; ignore AS4_PATH
	}
	excess := n2 - n4
	out := make(ASPath, 0, len(a.ASPath)+len(a.AS4Path))
	for _, seg := range a.ASPath {
		if excess == 0 {
			break
		}
		switch {
		case seg.Type == SegSet:
			out = append(out, PathSegment{Type: SegSet, ASNs: append([]asrel.ASN(nil), seg.ASNs...)})
			excess--
		case len(seg.ASNs) <= excess:
			out = append(out, PathSegment{Type: seg.Type, ASNs: append([]asrel.ASN(nil), seg.ASNs...)})
			excess -= len(seg.ASNs)
		default:
			out = append(out, PathSegment{Type: seg.Type, ASNs: append([]asrel.ASN(nil), seg.ASNs[:excess]...)})
			excess = 0
		}
	}
	return append(out, a.AS4Path.Clone()...)
}

// DecodeAttrs parses a packed path-attribute block into out, which is
// Reset first. The input buffer is not retained.
//
//hybridrel:hotpath
func DecodeAttrs(b []byte, opt Options, out *Attrs) error {
	out.Reset()
	for len(b) > 0 {
		if len(b) < 2 {
			return fmt.Errorf("%w: attribute header", ErrTruncated)
		}
		flags, typ := b[0], b[1]
		b = b[2:]
		var alen int
		if flags&flagExtLen != 0 {
			if len(b) < 2 {
				return fmt.Errorf("%w: extended attribute length", ErrTruncated)
			}
			alen = int(binary.BigEndian.Uint16(b))
			b = b[2:]
		} else {
			if len(b) < 1 {
				return fmt.Errorf("%w: attribute length", ErrTruncated)
			}
			alen = int(b[0])
			b = b[1:]
		}
		if len(b) < alen {
			return fmt.Errorf("%w: attribute %d body (%d bytes)", ErrTruncated, typ, alen)
		}
		data := b[:alen]
		b = b[alen:]
		if err := decodeOneAttr(flags, typ, data, opt, out); err != nil {
			return err
		}
	}
	return nil
}

//hybridrel:hotpath
func decodeOneAttr(flags, typ uint8, data []byte, opt Options, out *Attrs) error {
	switch typ {
	case attrOrigin:
		if len(data) != 1 {
			return fmt.Errorf("bgp: ORIGIN length %d", len(data))
		}
		out.Origin, out.HasOrigin = Origin(data[0]), true
	case attrASPath:
		p, err := decodeASPath(data, opt.ASN4, out.ASPath)
		if err != nil {
			return fmt.Errorf("bgp: AS_PATH: %w", err)
		}
		out.ASPath = p
	case attrAS4Path:
		p, err := decodeASPath(data, true, out.AS4Path)
		if err != nil {
			return fmt.Errorf("bgp: AS4_PATH: %w", err)
		}
		out.AS4Path = p
	case attrNextHop:
		if len(data) != 4 {
			return fmt.Errorf("bgp: NEXT_HOP length %d", len(data))
		}
		var raw [4]byte
		copy(raw[:], data)
		out.NextHop = netip.AddrFrom4(raw)
	case attrMED:
		if len(data) != 4 {
			return fmt.Errorf("bgp: MED length %d", len(data))
		}
		out.MED, out.HasMED = binary.BigEndian.Uint32(data), true
	case attrLocalPref:
		if len(data) != 4 {
			return fmt.Errorf("bgp: LOCAL_PREF length %d", len(data))
		}
		out.LocalPref, out.HasLocalPref = binary.BigEndian.Uint32(data), true
	case attrAtomicAggregate:
		if len(data) != 0 {
			return fmt.Errorf("bgp: ATOMIC_AGGREGATE length %d", len(data))
		}
		out.AtomicAggregate = true
	case attrAggregator, attrAS4Aggregator:
		asn4 := opt.ASN4 || typ == attrAS4Aggregator
		want := 6
		if asn4 {
			want = 8
		}
		if len(data) != want {
			return fmt.Errorf("bgp: AGGREGATOR length %d, want %d", len(data), want)
		}
		var agg Aggregator
		if asn4 {
			agg.ASN = asrel.ASN(binary.BigEndian.Uint32(data))
			data = data[4:]
		} else {
			agg.ASN = asrel.ASN(binary.BigEndian.Uint16(data))
			data = data[2:]
		}
		var raw [4]byte
		copy(raw[:], data)
		agg.Addr = netip.AddrFrom4(raw)
		// AS4_AGGREGATOR overrides the two-byte form (RFC 6793 §4.2.3).
		if typ == attrAS4Aggregator || out.Aggregator == nil {
			out.Aggregator = &agg
		}
	case attrCommunities:
		if len(data)%4 != 0 {
			return fmt.Errorf("bgp: COMMUNITIES length %d not a multiple of 4", len(data))
		}
		for len(data) > 0 {
			out.Communities = append(out.Communities, Community(binary.BigEndian.Uint32(data)))
			data = data[4:]
		}
	case attrMPReach:
		mp, err := decodeMPReach(data, opt.RIBMPReach, out)
		if err != nil {
			return err
		}
		out.MPReach = mp
	case attrMPUnreach:
		mp, err := decodeMPUnreach(data)
		if err != nil {
			return err
		}
		out.MPUnreach = mp
	default:
		out.Unknown = append(out.Unknown, RawAttr{
			Flags: flags, Type: typ, Data: append([]byte(nil), data...),
		})
	}
	return nil
}

// decodeASPath parses a packed AS_PATH into `into`'s backing storage:
// the segment slice and each recycled segment's ASN slice are reused
// where capacity allows, so a warmed decoder parses paths without
// allocating. Pass nil to decode into fresh storage.
//
//hybridrel:hotpath
func decodeASPath(b []byte, asn4 bool, into ASPath) (ASPath, error) {
	width := 2
	if asn4 {
		width = 4
	}
	path := into[:0]
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, fmt.Errorf("%w: segment header", ErrTruncated)
		}
		typ := SegType(b[0])
		count := int(b[1])
		b = b[2:]
		need := count * width
		if len(b) < need {
			return nil, fmt.Errorf("%w: segment of %d ASNs", ErrTruncated, count)
		}
		var asns []asrel.ASN
		if len(path) < cap(path) {
			// Recycle the segment beyond len: its ASN slice keeps its
			// capacity from the previous decode.
			path = path[:len(path)+1]
			asns = path[len(path)-1].ASNs
		} else {
			path = append(path, PathSegment{})
		}
		if cap(asns) < count {
			asns = make([]asrel.ASN, count)
		} else {
			asns = asns[:count]
		}
		if asn4 {
			for i := 0; i < count; i++ {
				asns[i] = asrel.ASN(binary.BigEndian.Uint32(b[i*4:]))
			}
		} else {
			for i := 0; i < count; i++ {
				asns[i] = asrel.ASN(binary.BigEndian.Uint16(b[i*2:]))
			}
		}
		b = b[need:]
		path[len(path)-1] = PathSegment{Type: typ, ASNs: asns}
	}
	return path, nil
}

// decodeMPReach parses MP_REACH_NLRI into out's scratch MPReach,
// allocating one only on the first decode; the next-hop and NLRI slices
// keep their capacity across records.
func decodeMPReach(b []byte, ribMode bool, out *Attrs) (*MPReach, error) {
	mp := out.mpReachScratch
	if mp == nil {
		mp = &MPReach{}
		out.mpReachScratch = mp
	}
	*mp = MPReach{NextHop: mp.NextHop[:0], NLRI: mp.NLRI[:0]}
	if ribMode {
		// RFC 6396 §4.3.4: next-hop length + next hop only.
		if len(b) < 1 {
			return nil, fmt.Errorf("%w: RIB MP_REACH next-hop length", ErrTruncated)
		}
		nhlen := int(b[0])
		b = b[1:]
		if len(b) != nhlen {
			return nil, fmt.Errorf("bgp: RIB MP_REACH next hop: have %d bytes, header says %d", len(b), nhlen)
		}
		if err := parseNextHops(b, mp); err != nil {
			return nil, err
		}
		if nhlen >= 16 {
			mp.AFI = AFIIPv6
		} else {
			mp.AFI = AFIIPv4
		}
		mp.SAFI = SAFIUnicast
		return mp, nil
	}
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: MP_REACH header", ErrTruncated)
	}
	mp.AFI = binary.BigEndian.Uint16(b)
	mp.SAFI = b[2]
	nhlen := int(b[3])
	b = b[4:]
	if len(b) < nhlen+1 { // next hop + reserved byte
		return nil, fmt.Errorf("%w: MP_REACH next hop (%d bytes)", ErrTruncated, nhlen)
	}
	if err := parseNextHops(b[:nhlen], mp); err != nil {
		return nil, err
	}
	b = b[nhlen+1:] // skip reserved
	nlri, err := appendNLRIPrefixes(mp.NLRI, b, mp.AFI == AFIIPv6)
	if err != nil {
		return nil, fmt.Errorf("bgp: MP_REACH NLRI: %w", err)
	}
	mp.NLRI = nlri
	return mp, nil
}

// parseNextHops splits the next-hop field into one or two addresses:
// 4 bytes (v4), 16 bytes (v6 global) or 32 bytes (global + link-local).
func parseNextHops(b []byte, mp *MPReach) error {
	switch len(b) {
	case 0:
		return nil
	case 4:
		var raw [4]byte
		copy(raw[:], b)
		mp.NextHop = append(mp.NextHop, netip.AddrFrom4(raw))
	case 16, 32:
		for len(b) > 0 {
			var raw [16]byte
			copy(raw[:], b[:16])
			mp.NextHop = append(mp.NextHop, netip.AddrFrom16(raw))
			b = b[16:]
		}
	default:
		return fmt.Errorf("bgp: MP_REACH next-hop length %d unsupported", len(b))
	}
	return nil
}

func decodeMPUnreach(b []byte) (*MPUnreach, error) {
	if len(b) < 3 {
		return nil, fmt.Errorf("%w: MP_UNREACH header", ErrTruncated)
	}
	mp := &MPUnreach{AFI: binary.BigEndian.Uint16(b), SAFI: b[2]}
	wd, err := parseNLRI(b[3:], mp.AFI == AFIIPv6)
	if err != nil {
		return nil, fmt.Errorf("bgp: MP_UNREACH NLRI: %w", err)
	}
	mp.Withdrawn = wd
	return mp, nil
}
