package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hybridrel/internal/asrel"
	"hybridrel/internal/obs"
)

// TestLookupAllocs pins the per-request lookup path — the serve-side
// //hybridrel:hotpath functions — at zero allocations per operation.
// hybridlint's hotalloc analyzer forbids the allocating constructs
// statically; this is the dynamic backstop that catches anything the
// static check cannot see (interface boxing, escape-analysis
// regressions).
func TestLookupAllocs(t *testing.T) {
	_, snap, _ := fixtures(t)
	st := buildState(snap)
	if len(snap.Links4) == 0 || len(snap.Hybrids) == 0 {
		t.Fatal("fixture world has no links/hybrids")
	}
	present := snap.Links4[0].Key
	hybrid := snap.Hybrids[0].Key
	asn := hybrid.Lo
	missing := asrel.LinkKey{Lo: 1, Hi: 2}

	cases := []struct {
		name string
		fn   func()
	}{
		{"lookupLink/hit", func() { lookupLink(st.link4, st.snap.Links4, present) }},
		{"lookupLink/miss", func() { lookupLink(st.link4, st.snap.Links4, missing) }},
		{"lookupAS/hit", func() { st.lookupAS(asn) }},
		{"lookupAS/miss", func() { st.lookupAS(asrel.ASN(4200000000)) }},
		{"lookupHybrid/hit", func() { st.lookupHybrid(hybrid) }},
		{"lookupHybrid/miss", func() { st.lookupHybrid(missing) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}

// raceEnabled is set in race builds (race_test.go). The race detector
// makes sync.Pool drop a random share of what is put back, so
// allocation counts through pooled code vary from run to run there.
var raceEnabled bool

// instrumentedAllocBudget is how many more objects a hot read may
// allocate through the full middleware stack than through the bare
// server: the status recorder the metrics read, and the request copy
// that carries the pooled deadline context.
const instrumentedAllocBudget = 2

// TestInstrumentedAllocBudget bounds what the production middleware
// stack costs on the hot read endpoints. A /v1/rel or /v1/as request
// through a server carrying per-endpoint metrics, the load shedder and
// a request timeout may allocate at most instrumentedAllocBudget
// objects more than the same request through the bare server. The bare
// counts are pinned too, so the budget cannot be met by the bare path
// growing. The access log is off: it is I/O-bound and belongs on a
// buffered writer. The budget is on allocations, not wall-clock time,
// so the check gives the same answer on any host. Counts include the
// response recorder, not the request, which is built once per URL.
func TestInstrumentedAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts through sync.Pool are randomized under the race detector")
	}
	_, snap, _ := fixtures(t)
	bare := New(snap)
	full := New(snap,
		WithMetrics(obs.NewRegistry()),
		WithMaxInflight(1<<20),
		WithRequestTimeout(time.Minute))
	link := snap.Links6[0].Key
	cases := []struct {
		url     string
		barePin float64
	}{
		{fmt.Sprintf("/v1/rel?a=%d&b=%d", link.Lo, link.Hi), 18},
		{fmt.Sprintf("/v1/as/%d", link.Lo), 14},
	}
	for _, tc := range cases {
		req := httptest.NewRequest("GET", tc.url, nil)
		allocs := func(s *Server) float64 {
			return testing.AllocsPerRun(100, func() {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("GET %s: %d", tc.url, rec.Code)
				}
			})
		}
		b, f := allocs(bare), allocs(full)
		t.Logf("GET %s: bare %.0f, instrumented %.0f allocs/request", tc.url, b, f)
		if b > tc.barePin {
			t.Errorf("GET %s: bare server allocates %.0f objects/request, pinned at %.0f", tc.url, b, tc.barePin)
		}
		if f > b+instrumentedAllocBudget {
			t.Errorf("GET %s: instrumented server allocates %.0f objects/request, bare %.0f; budget is bare + %d",
				tc.url, f, b, instrumentedAllocBudget)
		}
	}
}
