// Package mrt reads and writes MRT export files (RFC 6396), the archive
// format used by RouteViews and RIPE RIS. It implements the record types
// the pipeline needs: TABLE_DUMP_V2 peer index tables and per-prefix RIB
// entries for IPv4 and IPv6 unicast, and BGP4MP message records. Unknown
// record types are surfaced raw rather than dropped so callers can count
// or skip them.
package mrt

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
)

// MRT record types (RFC 6396 §4).
const (
	TypeTableDumpV2 = 13
	TypeBGP4MP      = 16
	TypeBGP4MPET    = 17
)

// TABLE_DUMP_V2 subtypes (RFC 6396 §4.3).
const (
	SubtypePeerIndexTable   = 1
	SubtypeRIBIPv4Unicast   = 2
	SubtypeRIBIPv4Multicast = 3
	SubtypeRIBIPv6Unicast   = 4
	SubtypeRIBIPv6Multicast = 5
	SubtypeRIBGeneric       = 6
)

// BGP4MP subtypes (RFC 6396 §4.4).
const (
	SubtypeStateChange    = 0
	SubtypeMessage        = 1
	SubtypeMessageAS4     = 4
	SubtypeStateChangeAS4 = 5
)

// maxRecordLen bounds a single MRT record to guard against corrupt
// length fields. Real RIB records are far below this.
const maxRecordLen = 1 << 24

// headerLen is the fixed MRT record header size.
const headerLen = 12

// Record is one MRT record: the common header plus a decoded message.
type Record struct {
	Timestamp time.Time
	Type      uint16
	Subtype   uint16
	// Message is one of *PeerIndexTable, *RIB, *BGP4MPMessage or
	// RawMessage, depending on Type/Subtype.
	Message Message
}

// Clone deep-copies the record, detaching it from any reader-owned
// scratch — the escape hatch for Visit callbacks that must retain a
// record past their return.
func (r *Record) Clone() *Record {
	out := *r
	out.Message = cloneMessage(r.Message)
	return &out
}

// cloneMessage deep-copies a decoded message value.
func cloneMessage(m Message) Message {
	switch m := m.(type) {
	case *RIB:
		out := &RIB{Seq: m.Seq, Prefix: m.Prefix}
		if len(m.Entries) > 0 {
			out.Entries = make([]RIBEntry, len(m.Entries))
			for i := range m.Entries {
				e := &m.Entries[i]
				out.Entries[i] = RIBEntry{
					PeerIndex:    e.PeerIndex,
					OriginatedAt: e.OriginatedAt,
					Attrs:        e.Attrs.Clone(),
				}
			}
		}
		return out
	case *PeerIndexTable:
		out := *m
		out.Peers = append([]Peer(nil), m.Peers...)
		return &out
	case *BGP4MPMessage:
		out := *m
		out.Data = append([]byte(nil), m.Data...)
		return &out
	case RawMessage:
		return RawMessage(append([]byte(nil), m...))
	}
	return m
}

// Message is a decoded MRT record body.
type Message interface{ isMRTMessage() }

// Peer is one entry of a PEER_INDEX_TABLE.
type Peer struct {
	BGPID netip.Addr
	Addr  netip.Addr
	ASN   asrel.ASN
}

// PeerIndexTable maps RIB entry peer indexes to collector peers.
type PeerIndexTable struct {
	CollectorID netip.Addr
	ViewName    string
	Peers       []Peer
}

func (*PeerIndexTable) isMRTMessage() {}

// RIBEntry is one peer's route toward a RIB record's prefix.
type RIBEntry struct {
	PeerIndex    uint16
	OriginatedAt time.Time
	Attrs        bgp.Attrs
}

// RIB is a TABLE_DUMP_V2 per-prefix record.
type RIB struct {
	Seq     uint32
	Prefix  netip.Prefix
	Entries []RIBEntry
}

func (*RIB) isMRTMessage() {}

// BGP4MPMessage is a BGP4MP_MESSAGE or BGP4MP_MESSAGE_AS4 record. Data
// holds the embedded BGP message verbatim (header included).
type BGP4MPMessage struct {
	PeerAS    asrel.ASN
	LocalAS   asrel.ASN
	Ifindex   uint16
	AFI       uint16
	PeerAddr  netip.Addr
	LocalAddr netip.Addr
	AS4       bool
	Data      []byte
}

func (*BGP4MPMessage) isMRTMessage() {}

// Update decodes the embedded BGP message as an UPDATE.
func (m *BGP4MPMessage) Update(opt bgp.Options) (*bgp.Update, error) {
	var u bgp.Update
	if err := bgp.ParseUpdate(m.Data, opt, &u); err != nil {
		return nil, err
	}
	return &u, nil
}

// RawMessage preserves the body of record types this package does not
// interpret.
type RawMessage []byte

func (RawMessage) isMRTMessage() {}

// decodeShared dispatches one record body to its per-type decoder,
// reusing the reader's shared message values where the type has one.
// The returned Message (including RawMessage bodies and BGP4MP
// payloads) aliases the reader's scratch; Visit's no-retain contract is
// what makes that safe.
//
//hybridrel:hotpath
func (r *Reader) decodeShared(hdrType, subtype uint16, body []byte) (Message, error) {
	switch hdrType {
	case TypeTableDumpV2:
		switch subtype {
		case SubtypePeerIndexTable:
			return decodePeerIndexTable(body)
		case SubtypeRIBIPv4Unicast:
			return decodeRIBInto(body, false, &r.rib)
		case SubtypeRIBIPv6Unicast:
			return decodeRIBInto(body, true, &r.rib)
		}
	case TypeBGP4MP, TypeBGP4MPET:
		if hdrType == TypeBGP4MPET {
			// Extended timestamp: 4 extra microsecond bytes precede the body.
			if len(body) < 4 {
				return nil, fmt.Errorf("%w: BGP4MP_ET microseconds", bgp.ErrTruncated)
			}
			body = body[4:]
		}
		switch subtype {
		case SubtypeMessage:
			return decodeBGP4MPInto(body, false, &r.b4)
		case SubtypeMessageAS4:
			return decodeBGP4MPInto(body, true, &r.b4)
		}
	}
	return RawMessage(body), nil
}

func decodePeerIndexTable(b []byte) (*PeerIndexTable, error) {
	if len(b) < 6 {
		return nil, fmt.Errorf("%w: peer index header", bgp.ErrTruncated)
	}
	t := &PeerIndexTable{}
	var cid [4]byte
	copy(cid[:], b[:4])
	t.CollectorID = netip.AddrFrom4(cid)
	nameLen := int(binary.BigEndian.Uint16(b[4:6]))
	b = b[6:]
	if len(b) < nameLen+2 {
		return nil, fmt.Errorf("%w: view name", bgp.ErrTruncated)
	}
	t.ViewName = string(b[:nameLen])
	count := int(binary.BigEndian.Uint16(b[nameLen:]))
	b = b[nameLen+2:]
	t.Peers = make([]Peer, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < 5 {
			return nil, fmt.Errorf("%w: peer entry %d", bgp.ErrTruncated, i)
		}
		ptype := b[0]
		var p Peer
		var id [4]byte
		copy(id[:], b[1:5])
		p.BGPID = netip.AddrFrom4(id)
		b = b[5:]
		if ptype&0x01 != 0 { // IPv6 peer address
			if len(b) < 16 {
				return nil, fmt.Errorf("%w: peer %d IPv6 address", bgp.ErrTruncated, i)
			}
			var a [16]byte
			copy(a[:], b[:16])
			p.Addr = netip.AddrFrom16(a)
			b = b[16:]
		} else {
			if len(b) < 4 {
				return nil, fmt.Errorf("%w: peer %d IPv4 address", bgp.ErrTruncated, i)
			}
			var a [4]byte
			copy(a[:], b[:4])
			p.Addr = netip.AddrFrom4(a)
			b = b[4:]
		}
		if ptype&0x02 != 0 { // four-byte AS
			if len(b) < 4 {
				return nil, fmt.Errorf("%w: peer %d ASN", bgp.ErrTruncated, i)
			}
			p.ASN = asrel.ASN(binary.BigEndian.Uint32(b))
			b = b[4:]
		} else {
			if len(b) < 2 {
				return nil, fmt.Errorf("%w: peer %d ASN", bgp.ErrTruncated, i)
			}
			p.ASN = asrel.ASN(binary.BigEndian.Uint16(b))
			b = b[2:]
		}
		t.Peers = append(t.Peers, p)
	}
	return t, nil
}

// ribAttrOptions is how TABLE_DUMP_V2 RIB entries encode attributes:
// always four-byte ASNs, abbreviated MP_REACH (RFC 6396 §4.3.4).
var ribAttrOptions = bgp.Options{ASN4: true, RIBMPReach: true}

// decodeRIBInto parses a TABLE_DUMP_V2 RIB record into rib, reusing its
// entry slice and each recycled entry's decoded attribute storage —
// the zero-allocation shape of the visitor hot path.
//
//hybridrel:hotpath
func decodeRIBInto(b []byte, v6 bool, rib *RIB) (*RIB, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: RIB sequence", bgp.ErrTruncated)
	}
	rib.Seq = binary.BigEndian.Uint32(b)
	rib.Prefix = netip.Prefix{}
	rib.Entries = rib.Entries[:0]
	b = b[4:]
	prefix, n, err := readRIBPrefix(b, v6)
	if err != nil {
		return nil, err
	}
	rib.Prefix = prefix
	b = b[n:]
	if len(b) < 2 {
		return nil, fmt.Errorf("%w: RIB entry count", bgp.ErrTruncated)
	}
	count := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	for i := 0; i < count; i++ {
		if len(b) < 8 {
			return nil, fmt.Errorf("%w: RIB entry %d header", bgp.ErrTruncated, i)
		}
		if i < cap(rib.Entries) {
			// Recycle the entry beyond len: its Attrs keeps the slice
			// capacity (AS path segments, communities, MP_REACH scratch)
			// from the record it previously decoded.
			rib.Entries = rib.Entries[:i+1]
		} else {
			rib.Entries = append(rib.Entries, RIBEntry{})
		}
		e := &rib.Entries[i]
		e.PeerIndex = binary.BigEndian.Uint16(b)
		e.OriginatedAt = time.Unix(int64(binary.BigEndian.Uint32(b[2:])), 0).UTC()
		alen := int(binary.BigEndian.Uint16(b[6:]))
		b = b[8:]
		if len(b) < alen {
			return nil, fmt.Errorf("%w: RIB entry %d attributes", bgp.ErrTruncated, i)
		}
		if err := bgp.DecodeAttrs(b[:alen], ribAttrOptions, &e.Attrs); err != nil {
			return nil, fmt.Errorf("mrt: RIB entry %d: %w", i, err)
		}
		b = b[alen:]
	}
	return rib, nil
}

// readRIBPrefix reads the NLRI-encoded prefix of a RIB record.
//
//hybridrel:hotpath
func readRIBPrefix(b []byte, v6 bool) (netip.Prefix, int, error) {
	p, n, err := bgp.ReadPrefix(b, v6)
	if err != nil {
		return netip.Prefix{}, 0, fmt.Errorf("mrt: RIB prefix: %w", err)
	}
	return p, n, nil
}

// decodeBGP4MPInto parses a BGP4MP message record into m. Data aliases
// the record body (the caller's scratch); Record.Clone detaches it.
//
//hybridrel:hotpath
func decodeBGP4MPInto(b []byte, as4 bool, m *BGP4MPMessage) (*BGP4MPMessage, error) {
	asWidth := 2
	if as4 {
		asWidth = 4
	}
	need := 2*asWidth + 4
	if len(b) < need {
		return nil, fmt.Errorf("%w: BGP4MP header", bgp.ErrTruncated)
	}
	*m = BGP4MPMessage{AS4: as4}
	if as4 {
		m.PeerAS = asrel.ASN(binary.BigEndian.Uint32(b))
		m.LocalAS = asrel.ASN(binary.BigEndian.Uint32(b[4:]))
		b = b[8:]
	} else {
		m.PeerAS = asrel.ASN(binary.BigEndian.Uint16(b))
		m.LocalAS = asrel.ASN(binary.BigEndian.Uint16(b[2:]))
		b = b[4:]
	}
	m.Ifindex = binary.BigEndian.Uint16(b)
	m.AFI = binary.BigEndian.Uint16(b[2:])
	b = b[4:]
	addrLen := 4
	if m.AFI == bgp.AFIIPv6 {
		addrLen = 16
	}
	if len(b) < 2*addrLen {
		return nil, fmt.Errorf("%w: BGP4MP addresses", bgp.ErrTruncated)
	}
	m.PeerAddr = addrFromSlice(b[:addrLen])
	m.LocalAddr = addrFromSlice(b[addrLen : 2*addrLen])
	m.Data = b[2*addrLen:]
	return m, nil
}

//hybridrel:hotpath
func addrFromSlice(b []byte) netip.Addr {
	a, _ := netip.AddrFromSlice(b)
	return a
}
