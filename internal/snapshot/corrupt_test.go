package snapshot_test

// Corrupt mapped index: snapshot.Map checks structure only, so the
// serving index of a v3 file reaches the handlers unverified. Every
// index read is bounds-checked in this package; this test plants the
// corruptions that would panic an unchecked read — flipped bytes,
// offsets past the end, non-monotone offsets, hybrid positions past
// the list — one index section at a time, serves each mapped file
// through internal/serve on every endpoint, and requires 200s and 404s
// only. Strict Read must reject every case, both as corrupted
// (checksum mismatch) and with the checksums recomputed over the
// corrupt bytes (stored index differs from the builder's).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridrel/internal/serve"
	"hybridrel/internal/snapshot"
)

func TestCorruptMappedIndexNeverPanics(t *testing.T) {
	clean := snapshot.TinyV3(t)
	snap, err := snapshot.Read(bytes.NewReader(clean))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Hybrids) == 0 {
		t.Fatal("tiny world has no hybrids; the hybrid-index cases would be vacuous")
	}

	type corruption struct {
		name string
		edit func(b []byte, off, n int)
	}
	u32 := func(b []byte, at int, v uint32) { binary.LittleEndian.PutUint32(b[at:], v) }
	flip := corruption{"flipped bytes", func(b []byte, off, n int) {
		for r := range map[int]bool{0: true, n / 2: true, n - 1: true} {
			b[off+r*4] ^= 0xff
		}
	}}
	offsets := []corruption{flip,
		{"offset past the end", func(b []byte, off, n int) { u32(b, off+4*(n/2), 0xffffffff) }},
		{"last offset past the end", func(b []byte, off, n int) { u32(b, off+4*(n-1), 1<<30) }},
		{"non-monotone offsets", func(b []byte, off, n int) {
			next := binary.LittleEndian.Uint32(b[off+4*(n/2+1):])
			u32(b, off+4*(n/2), next+1)
		}},
	}
	positions := []corruption{flip,
		{"hybrid index = len(Hybrids)", func(b []byte, off, n int) { u32(b, off, uint32(len(snap.Hybrids))) }},
		{"hybrid index past the list", func(b []byte, off, n int) { u32(b, off+4*(n-1), 0xffffffff) }},
	}
	cases := map[int][]corruption{
		snapshot.SecASNs:   {flip, {"unsorted ASNs", func(b []byte, off, n int) { u32(b, off, 0xffffffff) }}},
		snapshot.SecNbrOff: offsets,
		snapshot.SecNbrs: {flip,
			{"neighbour ASN garbage", func(b []byte, off, n int) { u32(b, off+8*(n/2), 0xfffffffe) }},
			{"neighbour codes garbage", func(b []byte, off, n int) { u32(b, off+8*(n/2)+4, 0xfffefdfc) }}},
		snapshot.SecClassOff: offsets,
		snapshot.SecClassIdx: positions,
		snapshot.SecHybOff:   offsets,
		snapshot.SecHybIdx:   positions,
	}

	dir := t.TempDir()
	base := serve.New(snap)
	ran := 0
	for sec := snapshot.SecASNs; sec < snapshot.NumSections; sec++ {
		for _, c := range cases[sec] {
			off, n := snapshot.SectionRecords(t, clean, sec)
			if n == 0 {
				t.Fatalf("index section %d is empty; the tiny world is too small", sec)
			}
			bad := bytes.Clone(clean)
			c.edit(bad, off, n)
			name := fmt.Sprintf("section %d: %s", sec, c.name)
			if _, err := snapshot.Read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
				t.Errorf("%s: strict Read = %v, want a checksum mismatch", name, err)
			}
			snapshot.Reseal(t, bad)
			if _, err := snapshot.Read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "index") {
				t.Errorf("%s, checksums resealed: strict Read = %v, want a stored-index mismatch", name, err)
			}

			path := filepath.Join(dir, fmt.Sprintf("bad-%d-%d.snap", sec, ran))
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			m, err := snapshot.Map(path)
			if err != nil {
				t.Fatalf("%s: Map: %v", name, err)
			}
			if err := m.Verify(); err == nil {
				t.Errorf("%s: Verify of the mapped file passed", name)
			}
			// Fresh and hot-swapped installs both serve the corrupt index.
			for _, srv := range []*serve.Server{serve.New(m), base} {
				if srv == base {
					srv.Load(m)
				}
				serveEverything(t, name, srv, snap)
			}
			ran++
		}
	}
	t.Logf("%d corrupt mapped indexes served without a panic", ran)
}

// serveEverything queries every endpoint over every link and AS of
// world and fails on any status but 200 or 404.
func serveEverything(t *testing.T, name string, srv *serve.Server, world *snapshot.Snapshot) {
	t.Helper()
	urls := []string{"/v1/stats", "/v1/hybrids", "/v1/hybrids?offset=1&limit=2", "/v1/as/4294967295"}
	for _, cl := range []string{"h1", "h2", "h3", "other"} {
		urls = append(urls, "/v1/hybrids?class="+cl, "/v1/hybrids?offset=1&limit=1000&class="+cl)
	}
	for _, ls := range [][]snapshot.Link{world.Links4, world.Links6} {
		for _, l := range ls {
			urls = append(urls,
				fmt.Sprintf("/v1/rel?a=%d&b=%d", l.Key.Lo, l.Key.Hi),
				fmt.Sprintf("/v1/as/%d", l.Key.Lo),
				fmt.Sprintf("/v1/as/%d", l.Key.Hi))
		}
	}
	for _, u := range urls {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
		if rec.Code != 200 && rec.Code != 404 {
			t.Errorf("%s: GET %s -> %d %s", name, u, rec.Code, rec.Body)
		}
	}
}
