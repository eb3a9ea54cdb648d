package snapshot

import (
	"encoding/binary"
	"fmt"
	"os"
)

// Map opens a fixed-width (version 2 or 3) snapshot by mapping the
// file and serving it in place: the relationship tables, link
// sections, hybrid list and — for version 3 — the serving index all
// alias the mapped bytes, so load cost is O(#sections) structural
// validation plus one mmap syscall — independent of snapshot size —
// and steady-state RSS is whatever pages the kernel faults in under
// query load. A version-2 file has no stored index; Index builds it
// once, on first use.
//
// The trade against Open: Map checks neither the section payloads
// (sortedness, enum codes, bounds) nor the checksums nor the stored
// index, so a corrupt-but-structurally-valid file yields wrong query
// answers — memory-safely, every index read is bounds-checked — where
// Open would reject it. Verify runs Open's checks over the mapping.
// Use Open when the artifact crosses a trust boundary; Map is for
// serving artifacts the pipeline itself wrote.
//
// The caller holds the creator's reference and must Close the
// snapshot when done, or hand it to a server that takes ownership
// (internal/serve's Load). The file stays mapped until the last
// reference (Acquire/Release) is dropped, so a hot reload never unmaps
// a snapshot a handler or another install still reads. Version-1
// files cannot be mapped (varints have no fixed width); Map reports a
// distinguished error directing the caller to Open or a fixed-width
// re-export.
func Map(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	fail := func(err error) (*Snapshot, error) {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	fi, err := f.Stat()
	if err != nil {
		return fail(fmt.Errorf("snapshot: map: %w", err))
	}
	if fi.Size() < 8 || fi.Size() > int64(int(^uint(0)>>1)) {
		return fail(fmt.Errorf("snapshot: map: implausible file size %d bytes", fi.Size()))
	}
	// The header, directory, stats and trailer are read with pread, so
	// Map faults in none of the mapped pages: a request touches only
	// the pages its lookups reach.
	size := int(fi.Size())
	head := make([]byte, min(size, v3HeaderSize)+len(trailer))
	tail := head[len(head)-len(trailer):]
	head = head[:len(head)-len(trailer)]
	if _, err := f.ReadAt(head, 0); err != nil {
		return fail(fmt.Errorf("snapshot: map: read header: %w", err))
	}
	if _, err := f.ReadAt(tail, int64(size-len(trailer))); err != nil {
		return fail(fmt.Errorf("snapshot: map: read trailer: %w", err))
	}
	if string(head[:4]) == magic && binary.BigEndian.Uint16(head[4:6]) == Version1 {
		return fail(fmt.Errorf("snapshot: map: version 1 snapshot cannot be mapped; load it with Open, or re-export it in format version 3"))
	}
	lay, err := parseFixed(head, tail, size)
	if err != nil {
		return fail(err)
	}
	stats := make([]byte, lay.cnt[secStats]*recSize[secStats])
	if _, err := f.ReadAt(stats, int64(lay.off[secStats])); err != nil {
		return fail(fmt.Errorf("snapshot: map: read stats: %w", err))
	}
	data, closer, err := mmapFile(f, size)
	if err != nil {
		return fail(fmt.Errorf("snapshot: map: %w", err))
	}
	s, ok := aliasFixed(data, lay)
	if !ok {
		if s, err = readFixed(data); err != nil {
			closer()
			return fail(err)
		}
	} else if err = readStatsV2(stats, lay, s); err != nil {
		closer()
		return fail(err)
	}
	s.raw = data
	AttachCloser(s, closer)
	return s, nil
}
