package serve

// Tests for the observability and admission-control stack: the
// pre-load window (/healthz vs /readyz), the reload timeout against a
// loader that ignores its context, the pinned error-path table (wrong
// methods, malformed parameters, oversized limits), the load-shedder
// (deterministic slot exhaustion and a -race hammer), the request
// timeout, the access-log schema, and the /metrics exposition.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridrel/internal/obs"
	"hybridrel/internal/snapshot"
)

func TestPreLoadWindow(t *testing.T) {
	_, snap, _ := fixtures(t)
	srv := New(nil, WithSource(func(context.Context) (*snapshot.Snapshot, error) {
		return snap, nil
	}))

	// Liveness answers immediately; readiness and data endpoints hold
	// 503 until the first load.
	var health HealthResponse
	if code := get(t, srv, "GET", "/healthz", &health); code != http.StatusOK {
		t.Fatalf("pre-load /healthz: status %d", code)
	}
	if health.Status != "alive" || health.ASNs != 0 {
		t.Fatalf("pre-load /healthz: %+v", health)
	}
	var e ErrorResponse
	if code := get(t, srv, "GET", "/readyz", &e); code != http.StatusServiceUnavailable {
		t.Fatalf("pre-load /readyz: status %d", code)
	}
	if e.Error == "" {
		t.Fatal("pre-load /readyz: empty error")
	}
	for _, url := range []string{"/v1/rel?a=1&b=2", "/v1/as/1", "/v1/hybrids", "/v1/stats"} {
		if code := get(t, srv, "GET", url, &e); code != http.StatusServiceUnavailable {
			t.Errorf("pre-load %s: status %d, want 503", url, code)
		}
	}
	if _, _, _, _, ok := srv.Summary(); ok || srv.Generation() != 0 {
		t.Fatal("pre-load server reports an installed snapshot")
	}

	// The first reload makes the server ready.
	if code := get(t, srv, "POST", "/v1/reload", nil); code != http.StatusOK {
		t.Fatalf("reload: status %d", code)
	}
	if code := get(t, srv, "GET", "/readyz", &health); code != http.StatusOK {
		t.Fatalf("post-load /readyz: status %d", code)
	}
	if health.Status != "ready" || health.ASNs == 0 {
		t.Fatalf("post-load /readyz: %+v", health)
	}
	if code := get(t, srv, "GET", "/v1/stats", nil); code != http.StatusOK {
		t.Fatalf("post-load /v1/stats: status %d", code)
	}
	if code := get(t, srv, "GET", "/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("post-load /healthz: status %d %+v", code, health)
	}
}

func TestReloadTimeoutAgainstStallingLoader(t *testing.T) {
	_, snap, alt := fixtures(t)
	release := make(chan struct{})
	var loads atomic.Int32 // loader goroutines are unsynchronized peers
	srv := New(snap,
		WithReloadTimeout(30*time.Millisecond),
		WithSource(func(ctx context.Context) (*snapshot.Snapshot, error) {
			if loads.Add(1) == 1 {
				// Deliberately ignore ctx: the reload path must not
				// wedge even on a loader that never checks its context.
				<-release
				return nil, fmt.Errorf("released late")
			}
			return alt, nil
		}))

	var e ErrorResponse
	start := time.Now()
	if code := get(t, srv, "POST", "/v1/reload", &e); code != http.StatusGatewayTimeout {
		t.Fatalf("stalled reload: status %d, want 504 (%+v)", code, e)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("reload took %v despite 30ms timeout", waited)
	}
	if !strings.Contains(e.Error, "deadline") {
		t.Errorf("stalled reload error %q does not mention the deadline", e.Error)
	}
	// The serving snapshot is untouched and generation did not advance.
	if srv.Generation() != 1 || !serves(srv, snap) {
		t.Fatalf("stalled reload disturbed serving state (gen %d)", srv.Generation())
	}
	if code := get(t, srv, "GET", "/v1/stats", nil); code != http.StatusOK {
		t.Fatalf("serving broken after reload timeout: %d", code)
	}

	// A later reload with a well-behaved loader succeeds.
	close(release)
	if code := get(t, srv, "POST", "/v1/reload", nil); code != http.StatusOK {
		t.Fatalf("follow-up reload: status %d", code)
	}
	if srv.Generation() != 2 || !serves(srv, alt) {
		t.Fatal("follow-up reload did not install the new snapshot")
	}
}

// TestErrorPathTable pins the status code and JSON error schema of
// every handler error path: wrong methods on every route, malformed
// parameters, and pagination extremes.
func TestErrorPathTable(t *testing.T) {
	_, snap, _ := fixtures(t)
	reg := obs.NewRegistry()
	srv := New(snap, WithMetrics(reg),
		WithSource(func(context.Context) (*snapshot.Snapshot, error) { return snap, nil }))

	cases := []struct {
		method, url string
		want        int
		allow       string // expected Allow header on 405s
	}{
		// Wrong method on every route.
		{"POST", "/v1/rel?a=64500&b=64501", http.StatusMethodNotAllowed, "GET"},
		{"DELETE", "/v1/as/64500", http.StatusMethodNotAllowed, "GET"},
		{"PUT", "/v1/hybrids", http.StatusMethodNotAllowed, "GET"},
		{"POST", "/v1/stats", http.StatusMethodNotAllowed, "GET"},
		{"GET", "/v1/reload", http.StatusMethodNotAllowed, "POST"},
		{"POST", "/healthz", http.StatusMethodNotAllowed, "GET"},
		{"POST", "/readyz", http.StatusMethodNotAllowed, "GET"},
		{"POST", "/metrics", http.StatusMethodNotAllowed, "GET"},
		// Malformed /v1/rel parameters.
		{"GET", "/v1/rel", http.StatusBadRequest, ""},
		{"GET", "/v1/rel?a=64500", http.StatusBadRequest, ""},
		{"GET", "/v1/rel?a=abc&b=64501", http.StatusBadRequest, ""},
		{"GET", "/v1/rel?a=-1&b=64501", http.StatusBadRequest, ""},
		{"GET", "/v1/rel?a=64500&b=64500", http.StatusBadRequest, ""},
		{"GET", "/v1/rel?a=99999999999&b=1", http.StatusBadRequest, ""},
		// Malformed /v1/as path values.
		{"GET", "/v1/as/abc", http.StatusBadRequest, ""},
		{"GET", "/v1/as/-7", http.StatusBadRequest, ""},
		{"GET", "/v1/as/4294967296", http.StatusBadRequest, ""},
		// Malformed pagination.
		{"GET", "/v1/hybrids?offset=x", http.StatusBadRequest, ""},
		{"GET", "/v1/hybrids?offset=-1", http.StatusBadRequest, ""},
		{"GET", "/v1/hybrids?limit=0", http.StatusBadRequest, ""},
		{"GET", "/v1/hybrids?limit=nope", http.StatusBadRequest, ""},
		{"GET", "/v1/hybrids?class=bogus", http.StatusBadRequest, ""},
		// Unknown routes get JSON 404s.
		{"GET", "/v1/nope", http.StatusNotFound, ""},
		{"GET", "/totally/elsewhere", http.StatusNotFound, ""},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(tc.method, tc.url, nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.url, rec.Code, tc.want)
			continue
		}
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s %s: body %q is not an ErrorResponse (%v)",
				tc.method, tc.url, rec.Body.String(), err)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: content type %q", tc.method, tc.url, ct)
		}
		if tc.allow != "" && rec.Header().Get("Allow") != tc.allow {
			t.Errorf("%s %s: Allow %q, want %q",
				tc.method, tc.url, rec.Header().Get("Allow"), tc.allow)
		}
	}

	// An oversized limit clamps to MaxLimit rather than erroring.
	var hy HybridsResponse
	if code := get(t, srv, "GET", fmt.Sprintf("/v1/hybrids?limit=%d", MaxLimit*10), &hy); code != http.StatusOK {
		t.Fatalf("oversized limit: status %d", code)
	}
	if hy.Limit != MaxLimit {
		t.Errorf("oversized limit: Limit %d, want clamp to %d", hy.Limit, MaxLimit)
	}
}

// TestLoadShedderDeterministic fills every in-flight slot with reloads
// parked inside a stalled loader, then proves the next data request is
// shed with 429 + Retry-After while the probe endpoints stay exempt.
func TestLoadShedderDeterministic(t *testing.T) {
	_, snap, _ := fixtures(t)
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	reg := obs.NewRegistry()
	srv := New(snap, WithMaxInflight(2), WithMetrics(reg),
		WithSource(func(context.Context) (*snapshot.Snapshot, error) {
			entered <- struct{}{}
			<-release
			return snap, nil
		}))

	// Two reloads occupy both slots. The second parks on reloadMu, not
	// in the loader, so only wait for the first to enter; both hold an
	// in-flight slot from the moment ServeHTTP admits them.
	var wg sync.WaitGroup
	status := make([]int, 2)
	for i := range status {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/reload", nil))
			status[i] = rec.Code
		}(i)
	}
	<-entered
	// Both slots are taken once the in-flight count reaches the cap.
	for srv.inflight.Load() < 2 {
		time.Sleep(time.Millisecond)
	}

	var e ErrorResponse
	req := httptest.NewRequest("GET", "/v1/stats", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity /v1/stats: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("429 body %q is not an ErrorResponse", rec.Body.String())
	}
	// Probes and scrapes are exempt from shedding.
	for _, url := range []string{"/healthz", "/readyz", "/metrics"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("exempt %s shed with status %d", url, rec.Code)
		}
	}

	close(release)
	wg.Wait()
	<-entered // second reload's loader entry
	for i, code := range status {
		if code != http.StatusOK {
			t.Errorf("parked reload %d finished with %d", i, code)
		}
	}
	// Slots drain back to zero and serving resumes.
	if n := srv.inflight.Load(); n != 0 {
		t.Errorf("in-flight count %d after drain, want 0", n)
	}
	if code := get(t, srv, "GET", "/v1/stats", nil); code != http.StatusOK {
		t.Fatalf("post-drain /v1/stats: status %d", code)
	}
	text := scrape(t, srv)
	if v, _ := text.Value("hybridrel_http_requests_shed_total"); v < 1 {
		t.Errorf("shed counter %v, want >= 1", v)
	}
}

// TestLoadShedderRace hammers the server far past its in-flight
// ceiling from many goroutines: every response must be 200 or 429 —
// never a hang, never a 5xx — and the books must balance afterwards.
func TestLoadShedderRace(t *testing.T) {
	_, snap, _ := fixtures(t)
	reg := obs.NewRegistry()
	srv := New(snap, WithMaxInflight(4), WithMetrics(reg),
		WithRequestTimeout(2*time.Second), WithAccessLog(&syncBuffer{}))

	const workers = 32
	const perWorker = 40
	counts := make([]map[int]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			counts[w] = make(map[int]int)
			for i := 0; i < perWorker; i++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
				counts[w][rec.Code]++
			}
		}(w)
	}
	wg.Wait()

	total := 0
	for w, m := range counts {
		for code, n := range m {
			total += n
			if code != http.StatusOK && code != http.StatusTooManyRequests {
				t.Errorf("worker %d saw %d x status %d", w, n, code)
			}
		}
	}
	if total != workers*perWorker {
		t.Fatalf("accounted %d responses, want %d", total, workers*perWorker)
	}
	if n := srv.inflight.Load(); n != 0 {
		t.Errorf("in-flight count %d after hammer, want 0", n)
	}
	text := scrape(t, srv)
	served := text.Value2(t, `hybridrel_http_requests_total{code="2xx",endpoint="/v1/stats"}`)
	shed, _ := text.Value("hybridrel_http_requests_shed_total")
	if served+shed != float64(total) {
		t.Errorf("served %v + shed %v != %d", served, shed, total)
	}
}

// TestRequestTimeout registers a deliberately slow route (tests run in
// package serve, so they may extend the mux) and proves the deadline
// converts it into a 503 while fast endpoints are untouched.
func TestRequestTimeout(t *testing.T) {
	_, snap, _ := fixtures(t)
	reg := obs.NewRegistry()
	srv := New(snap, WithRequestTimeout(25*time.Millisecond), WithMetrics(reg))
	srv.mux.HandleFunc("GET /slow", func(w http.ResponseWriter, r *http.Request) {
		// A well-behaved slow handler: waits for work that never
		// finishes, aborts when the request deadline cancels the ctx.
		<-r.Context().Done()
	})

	var e ErrorResponse
	start := time.Now()
	code := get(t, srv, "GET", "/slow", &e)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("slow route: status %d, want 503", code)
	}
	if e.Error == "" {
		t.Fatal("timeout response is not an ErrorResponse")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("timeout took %v", waited)
	}
	// Fast endpoints still answer 200 under the same deadline.
	if code := get(t, srv, "GET", "/v1/stats", nil); code != http.StatusOK {
		t.Fatalf("fast route under timeout: status %d", code)
	}
	text := scrape(t, srv)
	if v, _ := text.Value("hybridrel_http_request_timeouts_total"); v != 1 {
		t.Errorf("timeout counter %v, want 1", v)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for access-log capture.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestAccessLogSchema(t *testing.T) {
	_, snap, _ := fixtures(t)
	buf := &syncBuffer{}
	srv := New(snap, WithAccessLog(buf))

	if code := get(t, srv, "GET", "/v1/stats", nil); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if code := get(t, srv, "GET", "/v1/rel?a=abc&b=1", nil); code != http.StatusBadRequest {
		t.Fatalf("bad rel: %d", code)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var recs [2]accessRecord
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &recs[i]); err != nil {
			t.Fatalf("line %d %q: %v", i, line, err)
		}
		if _, err := time.Parse(time.RFC3339Nano, recs[i].Time); err != nil {
			t.Errorf("line %d: bad time %q", i, recs[i].Time)
		}
		if recs[i].DurationMS < 0 {
			t.Errorf("line %d: negative duration", i)
		}
		if recs[i].Generation != 1 {
			t.Errorf("line %d: generation %d, want 1", i, recs[i].Generation)
		}
	}
	if recs[0].Method != "GET" || recs[0].Path != "/v1/stats" ||
		recs[0].Endpoint != "/v1/stats" || recs[0].Status != 200 || recs[0].Bytes == 0 {
		t.Errorf("stats record %+v", recs[0])
	}
	if recs[1].Status != 400 || recs[1].Endpoint != "/v1/rel" {
		t.Errorf("error record %+v", recs[1])
	}
}

// scrape fetches /metrics through the server itself and parses it.
func scrape(t *testing.T, srv *Server) *expo {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	exp, err := obs.ParseExposition(rec.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	return &expo{exp}
}

type expo struct{ *obs.Exposition }

// Value2 is Value that fails the test when the series is missing.
func (e *expo) Value2(t *testing.T, series string) float64 {
	t.Helper()
	v, ok := e.Value(series)
	if !ok {
		t.Fatalf("series %s missing from exposition", series)
	}
	return v
}

func TestServeMetricsExposition(t *testing.T) {
	_, snap, alt := fixtures(t)
	reg := obs.NewRegistry()
	srv := New(snap, WithMetrics(reg),
		WithSource(func(context.Context) (*snapshot.Snapshot, error) { return alt, nil }))

	for i := 0; i < 5; i++ {
		if code := get(t, srv, "GET", "/v1/stats", nil); code != http.StatusOK {
			t.Fatalf("stats: %d", code)
		}
	}
	if code := get(t, srv, "GET", "/v1/rel?a=abc&b=1", nil); code != http.StatusBadRequest {
		t.Fatal("bad rel not 400")
	}
	if code := get(t, srv, "GET", "/v1/nope", nil); code != http.StatusNotFound {
		t.Fatal("unknown route not 404")
	}
	if code := get(t, srv, "POST", "/v1/reload", nil); code != http.StatusOK {
		t.Fatal("reload failed")
	}

	text := scrape(t, srv)
	if got := text.Value2(t, `hybridrel_http_requests_total{code="2xx",endpoint="/v1/stats"}`); got != 5 {
		t.Errorf("stats 2xx = %v, want 5", got)
	}
	if got := text.Value2(t, `hybridrel_http_requests_total{code="4xx",endpoint="/v1/rel"}`); got != 1 {
		t.Errorf("rel 4xx = %v, want 1", got)
	}
	if got := text.Value2(t, `hybridrel_http_requests_total{code="4xx",endpoint="other"}`); got != 1 {
		t.Errorf("other 4xx = %v, want 1", got)
	}
	if got := text.Value2(t, `hybridrel_http_requests_total{code="2xx",endpoint="/v1/reload"}`); got != 1 {
		t.Errorf("reload 2xx = %v, want 1", got)
	}
	if got := text.Value2(t, "hybridrel_snapshot_generation"); got != 2 {
		t.Errorf("generation gauge = %v, want 2 after reload", got)
	}
	if got := text.Value2(t, "hybridrel_snapshot_loaded"); got != 1 {
		t.Errorf("loaded gauge = %v, want 1", got)
	}
	if age := text.Value2(t, "hybridrel_snapshot_age_seconds"); age < 0 || age > 120 {
		t.Errorf("snapshot age %v out of range", age)
	}
	if n := text.Value2(t, `hybridrel_http_request_duration_ns_count{endpoint="/v1/stats"}`); n != 5 {
		t.Errorf("stats latency count = %v, want 5", n)
	}
	if sum := text.Sum(`hybridrel_http_request_duration_ns_sum`); sum <= 0 {
		t.Errorf("latency sum %v, want > 0", sum)
	}
	// The whole exposition must declare types for the hybridrel families.
	for fam, typ := range map[string]string{
		"hybridrel_http_requests_total":         "counter",
		"hybridrel_http_inflight_requests":      "gauge",
		"hybridrel_http_request_duration_ns":    "histogram",
		"hybridrel_snapshot_generation":         "gauge",
		"hybridrel_http_requests_shed_total":    "counter",
		"hybridrel_http_request_timeouts_total": "counter",
	} {
		if text.Types[fam] != typ {
			t.Errorf("family %s declared %q, want %q", fam, text.Types[fam], typ)
		}
	}
}
