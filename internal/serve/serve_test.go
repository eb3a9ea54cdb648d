package serve

// Serving-layer tests: every endpoint's response must agree exactly
// with the Analysis accessors over the small synthetic world, the
// error paths must be descriptive HTTP errors, hot reload must swap
// atomically under concurrent load (run with -race), and the indexed
// /v1/rel and /v1/as paths carry benchmarks that record the
// queries-per-second trajectory.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/core"
	"hybridrel/internal/gen"
	"hybridrel/internal/golden"
	"hybridrel/internal/snapshot"
	"hybridrel/internal/testutil"
)

var (
	fixtureOnce sync.Once
	fixtureA    *core.Analysis
	fixtureSnap *snapshot.Snapshot
	fixtureAlt  *snapshot.Snapshot
	fixtureErr  error
)

// fixtures builds (once) the primary small-world analysis + snapshot
// and an alternate-seed snapshot for reload tests.
func fixtures(t testing.TB) (*core.Analysis, *snapshot.Snapshot, *snapshot.Snapshot) {
	t.Helper()
	fixtureOnce.Do(func() {
		w, err := testutil.BuildWorld(gen.SmallConfig())
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureA = core.Analyze(w.D4, w.D6, w.Dict, core.DefaultOptions())
		fixtureSnap = snapshot.Capture(fixtureA)

		altCfg := gen.SmallConfig()
		altCfg.Seed = 1789
		altW, err := testutil.BuildWorld(altCfg)
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureAlt = snapshot.Capture(core.Analyze(altW.D4, altW.D6, altW.Dict, core.DefaultOptions()))
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureA, fixtureSnap, fixtureAlt
}

// serves reports whether srv's installed snapshot has snap's headline
// sizes; the fixture snapshots differ in every one of them.
func serves(srv *Server, snap *snapshot.Snapshot) bool {
	_, links4, links6, hybrids, ok := srv.Summary()
	return ok && links4 == len(snap.Links4) && links6 == len(snap.Links6) && hybrids == len(snap.Hybrids)
}

// get performs a request against the handler and decodes the JSON body.
func get(t *testing.T, h http.Handler, method, url string, out any) int {
	t.Helper()
	req := httptest.NewRequest(method, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, rec.Body.String(), err)
		}
	}
	return rec.Code
}

func TestRelEndpointMatchesAnalysis(t *testing.T) {
	a, snap, _ := fixtures(t)
	srv := New(snap)

	// Every hybrid link plus a slice of the plain dual-stack ones, each
	// queried in both orientations.
	checked := 0
	check := func(x, y asrel.ASN) {
		var resp RelResponse
		code := get(t, srv, "GET", fmt.Sprintf("/v1/rel?a=%d&b=%d", x, y), &resp)
		if code != http.StatusOK {
			t.Fatalf("rel %d-%d: status %d", x, y, code)
		}
		if want := a.Rel4.Get(x, y).String(); resp.V4 != want {
			t.Errorf("rel %d-%d: v4 %q, want %q", x, y, resp.V4, want)
		}
		if want := a.Rel6.Get(x, y).String(); resp.V6 != want {
			t.Errorf("rel %d-%d: v6 %q, want %q", x, y, resp.V6, want)
		}
		k := asrel.Key(x, y)
		if resp.In4 != a.D4.HasLink(k) || resp.In6 != a.D6.HasLink(k) {
			t.Errorf("rel %d-%d: planes in4=%v in6=%v", x, y, resp.In4, resp.In6)
		}
		if resp.DualStack != (resp.In4 && resp.In6) {
			t.Errorf("rel %d-%d: dual_stack inconsistent", x, y)
		}
		if resp.Visibility6 != a.D6.LinkVisibility(k) {
			t.Errorf("rel %d-%d: visibility6 %d, want %d", x, y, resp.Visibility6, a.D6.LinkVisibility(k))
		}
		wantClass := asrel.Classify(a.Rel4.GetKey(k), a.Rel6.GetKey(k))
		if resp.Hybrid != (wantClass != asrel.NotHybrid && resp.DualStack) {
			t.Errorf("rel %d-%d: hybrid=%v, class %s", x, y, resp.Hybrid, wantClass)
		}
		if resp.Hybrid && resp.Class != wantClass.String() {
			t.Errorf("rel %d-%d: class %q, want %q", x, y, resp.Class, wantClass)
		}
		checked++
	}
	for _, h := range a.Hybrids() {
		check(h.Key.Lo, h.Key.Hi)
		check(h.Key.Hi, h.Key.Lo) // inverted orientation
	}
	links6 := a.D6.Links()
	for i := 0; i < len(links6) && i < 200; i += 3 {
		check(links6[i].Lo, links6[i].Hi)
	}
	if checked < 10 {
		t.Fatalf("only %d links checked; world too small for a meaningful test", checked)
	}
}

func TestRelEndpointErrors(t *testing.T) {
	_, snap, _ := fixtures(t)
	srv := New(snap)
	var e ErrorResponse
	if code := get(t, srv, "GET", "/v1/rel?a=1", &e); code != http.StatusBadRequest {
		t.Errorf("missing b: status %d", code)
	}
	if code := get(t, srv, "GET", "/v1/rel?a=zebra&b=2", &e); code != http.StatusBadRequest {
		t.Errorf("garbage a: status %d", code)
	}
	if code := get(t, srv, "GET", "/v1/rel?a=7&b=7", &e); code != http.StatusBadRequest {
		t.Errorf("a == b: status %d", code)
	}
	if code := get(t, srv, "GET", "/v1/rel?a=4123456789&b=4123456790", &e); code != http.StatusNotFound {
		t.Errorf("unobserved link: status %d, body %+v", code, e)
	}
	if e.Error == "" {
		t.Error("error responses must carry a message")
	}
	// The AS-prefixed form parses too.
	var resp RelResponse
	h := fixtureSnap.Hybrids[0]
	url := fmt.Sprintf("/v1/rel?a=AS%d&b=AS%d", h.Key.Lo, h.Key.Hi)
	if code := get(t, srv, "GET", url, &resp); code != http.StatusOK {
		t.Errorf("AS-prefixed query: status %d", code)
	}
}

func TestASEndpointMatchesAnalysis(t *testing.T) {
	a, snap, _ := fixtures(t)
	srv := New(snap)

	// The hybrid endpoints exercise every field; add high-degree ASes
	// from the IPv6 link list for breadth.
	sample := map[asrel.ASN]bool{}
	for _, h := range a.Hybrids() {
		sample[h.Key.Lo] = true
		sample[h.Key.Hi] = true
	}
	for i, k := range a.D6.Links() {
		if i%7 == 0 {
			sample[k.Lo] = true
		}
	}

	neighbors4 := map[asrel.ASN]map[asrel.ASN]bool{}
	neighbors6 := map[asrel.ASN]map[asrel.ASN]bool{}
	collect := func(links []asrel.LinkKey, into map[asrel.ASN]map[asrel.ASN]bool) {
		for _, k := range links {
			if into[k.Lo] == nil {
				into[k.Lo] = map[asrel.ASN]bool{}
			}
			if into[k.Hi] == nil {
				into[k.Hi] = map[asrel.ASN]bool{}
			}
			into[k.Lo][k.Hi] = true
			into[k.Hi][k.Lo] = true
		}
	}
	collect(a.D4.Links(), neighbors4)
	collect(a.D6.Links(), neighbors6)

	for asn := range sample {
		var resp ASResponse
		code := get(t, srv, "GET", fmt.Sprintf("/v1/as/%d", asn), &resp)
		if code != http.StatusOK {
			t.Fatalf("as %d: status %d", asn, code)
		}
		if resp.Degree4 != len(neighbors4[asn]) || resp.Degree6 != len(neighbors6[asn]) {
			t.Errorf("as %d: degrees %d/%d, want %d/%d", asn,
				resp.Degree4, resp.Degree6, len(neighbors4[asn]), len(neighbors6[asn]))
		}
		union := len(neighbors4[asn])
		for n := range neighbors6[asn] {
			if !neighbors4[asn][n] {
				union++
			}
		}
		if len(resp.Neighbors) != union {
			t.Errorf("as %d: %d neighbors, want %d", asn, len(resp.Neighbors), union)
		}
		prev := int64(-1)
		for _, n := range resp.Neighbors {
			if int64(n.ASN) <= prev {
				t.Errorf("as %d: neighbors not sorted", asn)
			}
			prev = int64(n.ASN)
			nb := asrel.ASN(n.ASN)
			if n.In4 != neighbors4[asn][nb] || n.In6 != neighbors6[asn][nb] {
				t.Errorf("as %d neighbor %d: planes in4=%v in6=%v", asn, nb, n.In4, n.In6)
			}
			if want := a.Rel4.Get(asn, nb).String(); n.V4 != want {
				t.Errorf("as %d neighbor %d: v4 %q, want %q", asn, nb, n.V4, want)
			}
			if want := a.Rel6.Get(asn, nb).String(); n.V6 != want {
				t.Errorf("as %d neighbor %d: v6 %q, want %q", asn, nb, n.V6, want)
			}
		}
		var wantHybrids []HybridJSON
		for _, h := range a.Hybrids() {
			if h.Key.Contains(asn) {
				wantHybrids = append(wantHybrids, HybridsOf([]core.HybridLink{h})[0])
			}
		}
		if len(wantHybrids) == 0 {
			wantHybrids = []HybridJSON{}
		}
		if !reflect.DeepEqual(resp.Hybrids, wantHybrids) {
			t.Errorf("as %d: hybrid list mismatch:\ngot  %+v\nwant %+v", asn, resp.Hybrids, wantHybrids)
		}
	}
}

func TestASEndpointErrors(t *testing.T) {
	_, snap, _ := fixtures(t)
	srv := New(snap)
	var e ErrorResponse
	if code := get(t, srv, "GET", "/v1/as/zebra", &e); code != http.StatusBadRequest {
		t.Errorf("garbage asn: status %d", code)
	}
	if code := get(t, srv, "GET", "/v1/as/4123456789", &e); code != http.StatusNotFound {
		t.Errorf("unknown asn: status %d", code)
	}
}

func TestHybridsEndpoint(t *testing.T) {
	a, snap, _ := fixtures(t)
	srv := New(snap)
	all := HybridsOf(a.Hybrids())

	var resp HybridsResponse
	if code := get(t, srv, "GET", "/v1/hybrids", &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Total != len(all) {
		t.Errorf("total %d, want %d", resp.Total, len(all))
	}
	if want := all[:min(len(all), DefaultLimit)]; !reflect.DeepEqual(resp.Hybrids, want) {
		t.Error("default page does not match the analysis hybrid list")
	}

	// Pages of three, concatenated, must reproduce the full list.
	var paged []HybridJSON
	for off := 0; off < len(all); off += 3 {
		var page HybridsResponse
		url := fmt.Sprintf("/v1/hybrids?offset=%d&limit=3", off)
		if code := get(t, srv, "GET", url, &page); code != http.StatusOK {
			t.Fatalf("page %d: status %d", off, code)
		}
		if len(page.Hybrids) > 3 {
			t.Fatalf("page %d: %d items, limit 3", off, len(page.Hybrids))
		}
		paged = append(paged, page.Hybrids...)
	}
	if !reflect.DeepEqual(paged, all) {
		t.Error("paginated concatenation differs from the full hybrid list")
	}

	// Offset past the end: empty page, still 200.
	var empty HybridsResponse
	if code := get(t, srv, "GET", fmt.Sprintf("/v1/hybrids?offset=%d", len(all)+10), &empty); code != http.StatusOK {
		t.Errorf("past-the-end offset: status %d", code)
	}
	if len(empty.Hybrids) != 0 || empty.Total != len(all) {
		t.Errorf("past-the-end offset: %d items, total %d", len(empty.Hybrids), empty.Total)
	}

	// Class filters agree with the census, via both spellings.
	census := a.HybridCensus()
	for _, tc := range []struct {
		query string
		class asrel.HybridClass
	}{
		{"h1", asrel.HybridPeerTransit},
		{"h2", asrel.HybridTransitPeer},
		{"h3", asrel.HybridReversed},
		{"v4-p2p%2Fv6-transit", asrel.HybridPeerTransit},
	} {
		var filtered HybridsResponse
		url := fmt.Sprintf("/v1/hybrids?class=%s&limit=%d", tc.query, MaxLimit)
		if code := get(t, srv, "GET", url, &filtered); code != http.StatusOK {
			t.Fatalf("class %s: status %d", tc.query, code)
		}
		if filtered.Total != census.ByClass[tc.class] {
			t.Errorf("class %s: total %d, census %d", tc.query, filtered.Total, census.ByClass[tc.class])
		}
		for _, h := range filtered.Hybrids {
			if h.Class != tc.class.String() {
				t.Errorf("class %s: stray %q entry", tc.query, h.Class)
			}
		}
	}

	var e ErrorResponse
	if code := get(t, srv, "GET", "/v1/hybrids?class=h9", &e); code != http.StatusBadRequest {
		t.Errorf("bad class: status %d", code)
	}
	if code := get(t, srv, "GET", "/v1/hybrids?offset=-1", &e); code != http.StatusBadRequest {
		t.Errorf("negative offset: status %d", code)
	}
	if code := get(t, srv, "GET", "/v1/hybrids?limit=0", &e); code != http.StatusBadRequest {
		t.Errorf("zero limit: status %d", code)
	}
}

// TestHybridsPaginationBounds pins the /v1/hybrids offset/limit
// validation over the edge grid {-1, 0, len, len+1, MaxLimit+1}:
// negative offsets and non-positive limits are 400s (strconv.Atoi
// accepting a value is not the same as the value being valid), an
// offset at or past the end of the list is a clean empty page, and an
// over-large limit clamps to MaxLimit instead of flowing raw into the
// slicing.
func TestHybridsPaginationBounds(t *testing.T) {
	a, snap, _ := fixtures(t)
	srv := New(snap)
	n := len(a.Hybrids())
	if n == 0 {
		t.Fatal("fixture world produced no hybrids; the bounds grid would be vacuous")
	}

	offsetCases := []struct {
		offset    int
		wantCode  int
		wantItems int
	}{
		{-1, http.StatusBadRequest, 0},
		{0, http.StatusOK, min(n, DefaultLimit)},
		{n, http.StatusOK, 0},
		{n + 1, http.StatusOK, 0},
		{MaxLimit + 1, http.StatusOK, 0}, // fixture has far fewer hybrids than MaxLimit
	}
	for _, tc := range offsetCases {
		var resp HybridsResponse
		var e ErrorResponse
		url := fmt.Sprintf("/v1/hybrids?offset=%d", tc.offset)
		if tc.wantCode != http.StatusOK {
			if code := get(t, srv, "GET", url, &e); code != tc.wantCode {
				t.Errorf("offset=%d: status %d, want %d", tc.offset, code, tc.wantCode)
			}
			if e.Error == "" {
				t.Errorf("offset=%d: rejection carries no error message", tc.offset)
			}
			continue
		}
		if code := get(t, srv, "GET", url, &resp); code != tc.wantCode {
			t.Errorf("offset=%d: status %d, want %d", tc.offset, code, tc.wantCode)
			continue
		}
		if len(resp.Hybrids) != tc.wantItems {
			t.Errorf("offset=%d: %d items, want %d", tc.offset, len(resp.Hybrids), tc.wantItems)
		}
		if resp.Total != n {
			t.Errorf("offset=%d: total %d, want %d", tc.offset, resp.Total, n)
		}
	}

	limitCases := []struct {
		limit     int
		wantCode  int
		wantItems int
		wantLimit int
	}{
		{-1, http.StatusBadRequest, 0, 0},
		{0, http.StatusBadRequest, 0, 0},
		{n, http.StatusOK, min(n, MaxLimit), min(n, MaxLimit)},
		{n + 1, http.StatusOK, min(n, MaxLimit), min(n+1, MaxLimit)},
		{MaxLimit + 1, http.StatusOK, min(n, MaxLimit), MaxLimit},
	}
	for _, tc := range limitCases {
		var resp HybridsResponse
		var e ErrorResponse
		url := fmt.Sprintf("/v1/hybrids?limit=%d", tc.limit)
		if tc.wantCode != http.StatusOK {
			if code := get(t, srv, "GET", url, &e); code != tc.wantCode {
				t.Errorf("limit=%d: status %d, want %d", tc.limit, code, tc.wantCode)
			}
			if e.Error == "" {
				t.Errorf("limit=%d: rejection carries no error message", tc.limit)
			}
			continue
		}
		if code := get(t, srv, "GET", url, &resp); code != tc.wantCode {
			t.Errorf("limit=%d: status %d, want %d", tc.limit, code, tc.wantCode)
			continue
		}
		if len(resp.Hybrids) != tc.wantItems {
			t.Errorf("limit=%d: %d items, want %d", tc.limit, len(resp.Hybrids), tc.wantItems)
		}
		if resp.Limit != tc.wantLimit {
			t.Errorf("limit=%d: echoed limit %d, want %d (MaxLimit clamp)", tc.limit, resp.Limit, tc.wantLimit)
		}
	}

	// Non-numeric values are rejected too, for both parameters.
	for _, url := range []string{"/v1/hybrids?offset=abc", "/v1/hybrids?limit=abc"} {
		var e ErrorResponse
		if code := get(t, srv, "GET", url, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, code)
		}
	}

	// The class-filtered path clamps past-the-end offsets identically.
	census := a.HybridCensus()
	for cl, count := range census.ByClass {
		var resp HybridsResponse
		url := fmt.Sprintf("/v1/hybrids?class=%s&offset=%d", cl.String(), count+1)
		if code := get(t, srv, "GET", url, &resp); code != http.StatusOK {
			t.Errorf("class %s past-the-end offset: status %d", cl, code)
		}
		if len(resp.Hybrids) != 0 || resp.Total != count {
			t.Errorf("class %s past-the-end offset: %d items, total %d (want 0, %d)",
				cl, len(resp.Hybrids), resp.Total, count)
		}
	}
}

func TestStatsAndHealth(t *testing.T) {
	a, snap, _ := fixtures(t)
	srv := New(snap)

	// The served world is the canonical small world; pin it against the
	// shared golden headline numbers (internal/golden) so
	// the serve fixture can't drift from the pipeline/snapshot goldens.
	golden.AssertSmall(t, a)

	var stats StatsResponse
	if code := get(t, srv, "GET", "/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	// Freshness fields are stamped per request: the constructor's Load
	// is generation 1, and the snapshot was installed moments ago.
	if stats.Generation != 1 {
		t.Errorf("generation %d after the constructor load, want 1", stats.Generation)
	}
	if stats.SnapshotAgeSeconds < 0 || stats.SnapshotAgeSeconds > 60 {
		t.Errorf("snapshot_age_seconds %v implausible for a fresh server", stats.SnapshotAgeSeconds)
	}
	want := StatsOf(snap)
	want.Generation = stats.Generation
	want.SnapshotAgeSeconds = stats.SnapshotAgeSeconds
	if !reflect.DeepEqual(stats, want) {
		t.Errorf("stats response differs from StatsOf:\ngot  %+v\nwant %+v", stats, want)
	}
	if stats.Coverage.Paths6 != a.Coverage().Paths6 ||
		stats.Census.Hybrid != a.HybridCensus().Hybrid ||
		stats.Valley.Valley != a.ValleyReport().Valley ||
		stats.Visibility.Share != a.HybridVisibility().Share() {
		t.Error("stats response disagrees with the live accessors")
	}

	var health HealthResponse
	if code := get(t, srv, "GET", "/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if health.Status != "ok" || health.Hybrids != len(snap.Hybrids) ||
		health.Links4 != len(snap.Links4) || health.Links6 != len(snap.Links6) ||
		health.LoadedAt == "" {
		t.Errorf("healthz: %+v", health)
	}
}

func TestReloadEndpoint(t *testing.T) {
	_, snap, alt := fixtures(t)

	// Without a source, reload is explicitly unimplemented.
	bare := New(snap)
	var e ErrorResponse
	if code := get(t, bare, "POST", "/v1/reload", &e); code != http.StatusNotImplemented {
		t.Errorf("no source: status %d", code)
	}

	// With a source, reload swaps the snapshot and reports the new one.
	var calls atomic.Int32
	srv := New(snap, WithSource(func(context.Context) (*snapshot.Snapshot, error) {
		calls.Add(1)
		return alt, nil
	}))
	var health HealthResponse
	if code := get(t, srv, "POST", "/v1/reload", &health); code != http.StatusOK {
		t.Fatalf("reload: status %d", code)
	}
	if calls.Load() != 1 || srv.Generation() != 2 || !serves(srv, alt) {
		t.Error("reload did not install the source's snapshot")
	}
	if health.Hybrids != len(alt.Hybrids) {
		t.Errorf("reload response describes the wrong snapshot: %+v", health)
	}

	// A failing source keeps the current snapshot serving.
	failing := New(snap, WithSource(func(context.Context) (*snapshot.Snapshot, error) {
		return nil, fmt.Errorf("disk on fire")
	}))
	if code := get(t, failing, "POST", "/v1/reload", &e); code != http.StatusInternalServerError {
		t.Errorf("failing source: status %d", code)
	}
	if failing.Generation() != 1 || !serves(failing, snap) {
		t.Error("failed reload replaced the serving snapshot")
	}
	var stats StatsResponse
	if code := get(t, failing, "GET", "/v1/stats", &stats); code != http.StatusOK {
		t.Errorf("serving after failed reload: status %d", code)
	}
}

// TestHotReloadUnderLoad swaps snapshots while goroutines hammer every
// read endpoint; run under -race this pins the lock-free swap. Every
// response must be a complete, valid document from one snapshot or the
// other — never an error, never a mixture.
func TestHotReloadUnderLoad(t *testing.T) {
	_, snap, alt := fixtures(t)
	statsA, statsB := StatsOf(snap), StatsOf(alt)

	var which atomic.Bool
	srv := New(snap, WithSource(func(context.Context) (*snapshot.Snapshot, error) {
		if which.Load() {
			return alt, nil
		}
		return snap, nil
	}))

	const workers = 8
	const perWorker = 300
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Swapper: alternates Load and the HTTP reload path as fast as the
	// readers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		flip := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			flip = !flip
			which.Store(flip)
			if flip {
				srv.Load(alt)
			} else {
				req := httptest.NewRequest("POST", "/v1/reload", nil)
				srv.ServeHTTP(httptest.NewRecorder(), req)
			}
		}
	}()

	errs := make(chan error, workers)
	h := snap.Hybrids[0]
	relURL := fmt.Sprintf("/v1/rel?a=%d&b=%d", h.Key.Lo, h.Key.Hi)
	asURL := fmt.Sprintf("/v1/as/%d", h.Key.Lo)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen uint64
			for i := 0; i < perWorker; i++ {
				// Stats must match exactly one of the two snapshots.
				req := httptest.NewRequest("GET", "/v1/stats", nil)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				var got StatsResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					errs <- fmt.Errorf("stats: bad JSON: %v", err)
					return
				}
				// Freshness fields vary per swap and per request; as seen
				// by any single reader the generation never goes backward.
				if got.Generation < lastGen {
					errs <- fmt.Errorf("generation went backward: %d after %d", got.Generation, lastGen)
					return
				}
				lastGen = got.Generation
				if got.SnapshotAgeSeconds < 0 {
					errs <- fmt.Errorf("negative snapshot age %v", got.SnapshotAgeSeconds)
					return
				}
				got.Generation = 0
				got.SnapshotAgeSeconds = 0
				if !reflect.DeepEqual(got, statsA) && !reflect.DeepEqual(got, statsB) {
					errs <- fmt.Errorf("stats matched neither snapshot: %+v", got)
					return
				}
				// Point lookups: any status but 5xx is fine (the link may
				// not exist in the alternate world), bodies must decode.
				for _, url := range []string{relURL, asURL, "/v1/hybrids?limit=5", "/healthz"} {
					req := httptest.NewRequest("GET", url, nil)
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, req)
					if rec.Code >= 500 {
						errs <- fmt.Errorf("%s: status %d mid-reload", url, rec.Code)
						return
					}
					var any map[string]any
					if err := json.Unmarshal(rec.Body.Bytes(), &any); err != nil {
						errs <- fmt.Errorf("%s: bad JSON mid-reload: %v", url, err)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
}

func benchServer(b *testing.B) (*Server, *snapshot.Snapshot) {
	_, snap, _ := fixtures(b)
	return New(snap), snap
}

// BenchmarkRelEndpoint measures the indexed /v1/rel hot path end to
// end (mux, handler, JSON encode). The acceptance bar is 100k
// queries/sec against the small world; the qps metric records it.
func BenchmarkRelEndpoint(b *testing.B) {
	srv, snap := benchServer(b)
	h := snap.Hybrids[0]
	url := fmt.Sprintf("/v1/rel?a=%d&b=%d", h.Key.Lo, h.Key.Hi)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest("GET", url, nil)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
}

func BenchmarkASEndpoint(b *testing.B) {
	srv, snap := benchServer(b)
	url := fmt.Sprintf("/v1/as/%d", snap.Hybrids[0].Key.Lo)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest("GET", url, nil)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
}

func BenchmarkStatsEndpoint(b *testing.B) {
	srv, _ := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest("GET", "/v1/stats", nil)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
}

// BenchmarkSnapshotLoad measures full index construction — the cost of
// one hot reload.
func BenchmarkSnapshotLoad(b *testing.B) {
	srv, snap := benchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Load(snap)
	}
}
