package mrt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// maxRetainedBody caps the body scratch buffer the reader keeps between
// records. Records larger than this (legitimate ones are far smaller;
// the wire format allows up to maxRecordLen) are served from a one-off
// buffer instead, so a single pathological record cannot pin megabytes
// for the lifetime of the archive scan.
const maxRetainedBody = 64 << 10

// Reader streams MRT records from an archive. It buffers the underlying
// reader itself; callers hand it a plain io.Reader (a file, a bytes
// buffer, a network stream).
//
// Reader offers two decoding surfaces: Visit streams records through a
// callback with all per-record state reused between calls (the
// zero-allocation ingest path), and Next returns an independently owned
// *Record per call (a thin wrapper over the same decoder that clones
// the shared record).
type Reader struct {
	r      *bufio.Reader
	hdr    [headerLen]byte
	body   []byte // scratch, grown as needed up to maxRetainedBody
	offset int64  // bytes consumed, for error context

	// Shared decode state for the visitor path: one Record and one
	// message value per interpreted type, reused across records.
	rec Record
	rib RIB
	b4  BGP4MPMessage
}

// NewReader returns a streaming MRT reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10)}
}

// Reset redirects the reader to a new underlying stream, retaining the
// buffered reader and all decode scratch. It is how a pooled reader is
// reused across archives without re-warming its buffers.
func (r *Reader) Reset(src io.Reader) {
	r.r.Reset(src)
	r.offset = 0
}

// readFrame reads one record header plus body. body points into the
// reader's scratch (or a one-off buffer for oversized records) and is
// valid until the next readFrame call. start is the byte offset of the
// record header, for error context. io.EOF is returned clean at the
// archive end.
//
//hybridrel:hotpath
func (r *Reader) readFrame() (ts uint32, typ, sub uint16, body []byte, start int64, err error) {
	start = r.offset
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, 0, 0, nil, start, io.EOF
		}
		return 0, 0, 0, nil, start, fmt.Errorf("mrt: offset %d: header: %w", start, err)
	}
	ts = binary.BigEndian.Uint32(r.hdr[0:4])
	typ = binary.BigEndian.Uint16(r.hdr[4:6])
	sub = binary.BigEndian.Uint16(r.hdr[6:8])
	length := binary.BigEndian.Uint32(r.hdr[8:12])
	if length > maxRecordLen {
		return 0, 0, 0, nil, start, fmt.Errorf("mrt: offset %d: record length %d exceeds %d", start, length, maxRecordLen)
	}
	if int(length) > maxRetainedBody {
		// One-off buffer: decoded and dropped with the record, keeping
		// the retained scratch bounded.
		body = make([]byte, length)
	} else {
		if cap(r.body) < int(length) {
			r.body = make([]byte, length)
		}
		body = r.body[:length]
	}
	if _, err := io.ReadFull(r.r, body); err != nil {
		return 0, 0, 0, nil, start, fmt.Errorf("mrt: offset %d: body of %d bytes: %w", start, length, err)
	}
	r.offset += int64(headerLen) + int64(length)
	return ts, typ, sub, body, start, nil
}

// visitOne decodes the next record into the reader's shared state and
// hands it to fn. It returns io.EOF clean at the archive end.
//
//hybridrel:hotpath
func (r *Reader) visitOne(fn func(*Record) error) error {
	ts, typ, sub, body, start, err := r.readFrame()
	if err != nil {
		return err
	}
	msg, err := r.decodeShared(typ, sub, body)
	if err != nil {
		return fmt.Errorf("mrt: offset %d: type %d subtype %d: %w", start, typ, sub, err)
	}
	r.rec = Record{
		Timestamp: time.Unix(int64(ts), 0).UTC(),
		Type:      typ,
		Subtype:   sub,
		Message:   msg,
	}
	return fn(&r.rec)
}

// Visit streams the archive, invoking fn once per record. The *Record —
// and everything it references: the message value, AS-path and
// community slices, BGP4MP payloads, raw bodies — is owned by the
// reader and reused for the next record, so fn must not retain any of
// it past its return; copy (Record.Clone) what must outlive the call.
// In exchange, steady-state decoding allocates nothing per record for
// the interpreted record types.
//
// Visit stops at the first decoding error or the first error returned
// by fn, and returns nil at a clean end of archive.
//
//hybridrel:hotpath
func (r *Reader) Visit(fn func(*Record) error) error {
	for {
		err := r.visitOne(fn)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Next returns the next record. It returns io.EOF cleanly at the end of
// the archive; any other error indicates a malformed record, annotated
// with the byte offset of the record header. The returned record is
// independently owned: Next is a compatibility wrapper that clones the
// visitor path's shared record.
func (r *Reader) Next() (*Record, error) {
	var out *Record
	if err := r.visitOne(func(rec *Record) error {
		out = rec.Clone()
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadAll drains the reader, returning every record. Intended for tests
// and small archives; the analysis pipeline streams with Visit.
func ReadAll(r io.Reader) ([]*Record, error) {
	mr := NewReader(r)
	var out []*Record
	err := mr.Visit(func(rec *Record) error {
		out = append(out, rec.Clone())
		return nil
	})
	return out, err
}
