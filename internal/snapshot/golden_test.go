package snapshot_test

// The golden pins of the canonical small world: its headline numbers,
// the bytes of its fixed-width encodings, and — through the serving
// layer, which this external test package may import — that every
// decoded form of it answers every endpoint byte for byte alike.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"hybridrel/internal/core"
	"hybridrel/internal/gen"
	"hybridrel/internal/golden"
	"hybridrel/internal/serve"
	"hybridrel/internal/snapshot"
	"hybridrel/internal/testutil"
)

// The small world's snapshot as the retired version-1 (raw and
// gzipped) and version-2 encoders wrote it, committed so the v1 and v2
// read paths stay pinned now that nothing writes either version.
const (
	smallV1   = "testdata/small.snap1"
	smallV1GZ = "testdata/small.snap1.gz"
	smallV2   = "testdata/small.snap2"
)

func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestGoldenDecodedHeadlines pins the shared golden headline numbers,
// the small world's v1 and v2 bytes (the committed files) and v3 bytes
// (the current encoder), that a decoded snapshot reports the same
// numbers as the live pipeline's accessors, and that the v1 file read
// and the v2 file read or mapped serve every endpoint byte-identically
// to the captured snapshot and to a mapped v3 file.
func TestGoldenDecodedHeadlines(t *testing.T) {
	w, err := testutil.BuildWorld(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := core.Analyze(w.D4, w.D6, w.Dict, core.DefaultOptions())
	golden.AssertSmall(t, a)
	captured := snapshot.Capture(a)

	v1, err := os.ReadFile(smallV1)
	if err != nil {
		t.Fatal(err)
	}
	if got := fnv64a(v1); got != golden.SmallSnapshotV1FNV {
		t.Errorf("%s FNV-64a = %#016x, want golden %#016x", smallV1, got, golden.SmallSnapshotV1FNV)
	}
	v2, err := os.ReadFile(smallV2)
	if err != nil {
		t.Fatal(err)
	}
	if got := fnv64a(v2); got != golden.SmallSnapshotV2FNV {
		t.Errorf("%s FNV-64a = %#016x, want golden %#016x", smallV2, got, golden.SmallSnapshotV2FNV)
	}
	var v3 bytes.Buffer
	if err := snapshot.EncodeV2(&v3, captured); err != nil {
		t.Fatal(err)
	}
	if got := fnv64a(v3.Bytes()); got != golden.SmallSnapshotV3FNV {
		t.Errorf("small-world v3 snapshot FNV-64a = %#016x, want golden %#016x", got, golden.SmallSnapshotV3FNV)
	}

	s, err := snapshot.Open(smallV1GZ)
	if err != nil {
		t.Fatal(err)
	}
	if s.Coverage != a.Coverage() {
		t.Errorf("coverage: snapshot %+v, live %+v", s.Coverage, a.Coverage())
	}
	if !reflect.DeepEqual(s.Census, a.HybridCensus()) {
		t.Errorf("census: snapshot %+v, live %+v", s.Census, a.HybridCensus())
	}
	if s.Visibility != a.HybridVisibility() {
		t.Errorf("visibility: snapshot %+v, live %+v", s.Visibility, a.HybridVisibility())
	}
	if s.Valley != a.ValleyReport() {
		t.Errorf("valley: snapshot %+v, live %+v", s.Valley, a.ValleyReport())
	}
	if !reflect.DeepEqual(s.Hybrids, a.Hybrids()) {
		t.Error("hybrid list: snapshot and live pipeline disagree")
	}
	for _, h := range s.Hybrids {
		if got := s.Rel6.GetKey(h.Key); got != h.V6 {
			t.Errorf("hybrid %s: decoded Rel6 says %s, list says %s", h.Key, got, h.V6)
		}
	}

	readV1, err := snapshot.Read(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("Read %s: %v", smallV1, err)
	}
	readV2, err := snapshot.Read(bytes.NewReader(v2))
	if err != nil {
		t.Fatalf("Read %s: %v", smallV2, err)
	}
	mappedV2, err := snapshot.Map(smallV2)
	if err != nil {
		t.Fatal(err)
	}
	defer mappedV2.Close()
	v3Path := filepath.Join(t.TempDir(), "small.snap3")
	if err := os.WriteFile(v3Path, v3.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mappedV3, err := snapshot.Map(v3Path)
	if err != nil {
		t.Fatal(err)
	}
	defer mappedV3.Close()

	want := endpointResponses(t, captured, captured)
	for _, c := range []struct {
		name string
		snap *snapshot.Snapshot
	}{{"Read(v1)", readV1}, {"Read(v2)", readV2}, {"Map(v2)", mappedV2}, {"Map(v3)", mappedV3}} {
		got := endpointResponses(t, captured, c.snap)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s serves a different response than Capture:\n got %s\nwant %s", c.name, got[i], want[i])
				break
			}
		}
	}
}

// volatile matches the response fields that vary with install time.
var volatile = regexp.MustCompile(`"(snapshot_age_seconds|loaded_at)":("[^"]*"|[-+.0-9e]+)`)

// endpointResponses serves snap and returns, normalized for install
// time, the status and body of every endpoint over every link and AS
// of world: each link in both orientations, each AS, one absent link
// and AS, the hybrid list unfiltered, paged and per class, the stats,
// and the probes.
func endpointResponses(t *testing.T, world, snap *snapshot.Snapshot) []string {
	t.Helper()
	srv := serve.New(snap)
	var urls []string
	seen := map[uint32]bool{}
	for _, ls := range [][]snapshot.Link{world.Links4, world.Links6} {
		for _, l := range ls {
			urls = append(urls,
				fmt.Sprintf("/v1/rel?a=%d&b=%d", l.Key.Lo, l.Key.Hi),
				fmt.Sprintf("/v1/rel?a=%d&b=%d", l.Key.Hi, l.Key.Lo))
			for _, asn := range []uint32{uint32(l.Key.Lo), uint32(l.Key.Hi)} {
				if !seen[asn] {
					seen[asn] = true
					urls = append(urls, fmt.Sprintf("/v1/as/%d", asn))
				}
			}
		}
	}
	urls = append(urls, "/v1/rel?a=4200000000&b=4200000001", "/v1/as/4200000000",
		"/v1/hybrids?limit=1000", "/v1/hybrids?offset=5&limit=7", "/v1/hybrids?offset=100000",
		"/v1/stats", "/healthz", "/readyz")
	for _, cl := range []string{"h1", "h2", "h3", "other"} {
		urls = append(urls, "/v1/hybrids?limit=1000&class="+cl, "/v1/hybrids?offset=2&limit=3&class="+cl)
	}
	out := make([]string, len(urls))
	for i, u := range urls {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
		out[i] = fmt.Sprintf("%s %d %s", u, rec.Code, volatile.ReplaceAll(rec.Body.Bytes(), []byte(`"$1":0`)))
	}
	return out
}
