package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Update is a decoded BGP UPDATE message. Withdrawn and NLRI carry IPv4
// prefixes only (RFC 4271); IPv6 reachability travels in Attrs.MPReach
// and Attrs.MPUnreach.
type Update struct {
	Withdrawn []netip.Prefix
	Attrs     Attrs
	NLRI      []netip.Prefix
}

// Reset clears the message for reuse.
func (u *Update) Reset() {
	u.Withdrawn = u.Withdrawn[:0]
	u.Attrs.Reset()
	u.NLRI = u.NLRI[:0]
}

// marker is the all-ones synchronization marker of RFC 4271.
var marker = [16]byte{
	0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
	0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
}

// Marshal serializes the UPDATE with its BGP header.
func (u *Update) Marshal(opt Options) ([]byte, error) {
	for _, p := range u.Withdrawn {
		if !p.Addr().Is4() {
			return nil, fmt.Errorf("bgp: withdrawn route %v is not IPv4", p)
		}
	}
	for _, p := range u.NLRI {
		if !p.Addr().Is4() {
			return nil, fmt.Errorf("bgp: NLRI %v is not IPv4 (use MP_REACH)", p)
		}
	}
	wd, err := appendNLRI(nil, u.Withdrawn)
	if err != nil {
		return nil, err
	}
	attrs, err := u.Attrs.Marshal(opt)
	if err != nil {
		return nil, err
	}
	if len(wd) > 0xFFFF || len(attrs) > 0xFFFF {
		return nil, fmt.Errorf("bgp: UPDATE section too large (%d/%d bytes)", len(wd), len(attrs))
	}
	body := make([]byte, 0, 4+len(wd)+len(attrs)+len(u.NLRI)*5)
	body = append(body, byte(len(wd)>>8), byte(len(wd)))
	body = append(body, wd...)
	body = append(body, byte(len(attrs)>>8), byte(len(attrs)))
	body = append(body, attrs...)
	body, err = appendNLRI(body, u.NLRI)
	if err != nil {
		return nil, err
	}
	total := headerLen + len(body)
	if total > MaxMessageLen {
		return nil, fmt.Errorf("bgp: UPDATE of %d bytes exceeds the %d-byte maximum", total, MaxMessageLen)
	}
	msg := make([]byte, 0, total)
	msg = append(msg, marker[:]...)
	msg = append(msg, byte(total>>8), byte(total))
	msg = append(msg, MsgUpdate)
	return append(msg, body...), nil
}

// ParseHeader validates a BGP message header and returns the declared
// total length and message type.
//
//hybridrel:hotpath
func ParseHeader(b []byte) (length int, msgType uint8, err error) {
	if len(b) < headerLen {
		return 0, 0, fmt.Errorf("%w: BGP header", ErrTruncated)
	}
	for _, m := range b[:16] {
		if m != 0xFF {
			return 0, 0, fmt.Errorf("bgp: bad marker byte 0x%02x", m)
		}
	}
	length = int(binary.BigEndian.Uint16(b[16:18]))
	msgType = b[18]
	if length < headerLen || length > MaxMessageLen {
		return 0, 0, fmt.Errorf("bgp: implausible message length %d", length)
	}
	return length, msgType, nil
}

// ParseUpdate decodes a full UPDATE message (header included) into out,
// reusing out's slice capacity across calls so a streaming reader can
// decode a feed without per-message allocations.
//
// Length-field hardening (the lying-length modes the MRT reader guards
// against): a withdrawn-routes or path-attribute length that declares
// more bytes than the body holds fails with ErrTruncated before any
// slicing, and the per-prefix decoder re-checks every prefix's byte
// need against the declared section, so a length field can never make
// the parser read past the section or the message. The one mode no
// wire-format parser can detect is an under-declared withdrawn length
// that happens to cut at a prefix boundary: the remaining withdrawn
// bytes then parse as path attributes and fail there (or desync) — the
// framing gives no redundancy to catch it, so callers must treat any
// ParseUpdate error as fatal for the session, per RFC 4271 §6.3.
// Bytes between the end of the declared sections and the header length
// are NLRI by definition; bytes past the header length are the next
// message's and are ignored here (framing is ParseHeader's job).
//
//hybridrel:hotpath
func ParseUpdate(b []byte, opt Options, out *Update) error {
	out.Reset()
	length, typ, err := ParseHeader(b)
	if err != nil {
		return err
	}
	if typ != MsgUpdate {
		return fmt.Errorf("bgp: message type %d is not UPDATE", typ)
	}
	if len(b) < length {
		return fmt.Errorf("%w: UPDATE body", ErrTruncated)
	}
	body := b[headerLen:length]

	if len(body) < 2 {
		return fmt.Errorf("%w: withdrawn length", ErrTruncated)
	}
	wdLen := int(binary.BigEndian.Uint16(body))
	body = body[2:]
	if len(body) < wdLen {
		return fmt.Errorf("%w: withdrawn routes", ErrTruncated)
	}
	wd, err := appendNLRIPrefixes(out.Withdrawn[:0], body[:wdLen], false)
	if err != nil {
		return fmt.Errorf("bgp: withdrawn routes: %w", err)
	}
	out.Withdrawn = wd
	body = body[wdLen:]

	if len(body) < 2 {
		return fmt.Errorf("%w: attribute length", ErrTruncated)
	}
	atLen := int(binary.BigEndian.Uint16(body))
	body = body[2:]
	if len(body) < atLen {
		return fmt.Errorf("%w: path attributes", ErrTruncated)
	}
	if err := DecodeAttrs(body[:atLen], opt, &out.Attrs); err != nil {
		return err
	}
	nlri, err := appendNLRIPrefixes(out.NLRI[:0], body[atLen:], false)
	if err != nil {
		return fmt.Errorf("bgp: NLRI: %w", err)
	}
	out.NLRI = nlri
	return nil
}
