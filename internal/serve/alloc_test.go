package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"hybridrel/internal/asrel"
	"hybridrel/internal/obs"
	"hybridrel/internal/snapshot"
)

// TestLookupAllocs pins the per-request lookup path — the index and
// link probes the handlers call, all //hybridrel:hotpath — at zero
// allocations per operation. hybridlint's hotalloc analyzer forbids the
// allocating constructs statically; this is the dynamic backstop that
// catches anything the static check cannot see (interface boxing,
// escape-analysis regressions).
func TestLookupAllocs(t *testing.T) {
	_, snap, _ := fixtures(t)
	st := newState(snap)
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
		{"LookupLink/hit", func() { snapshot.LookupLink(st.snap.Links4, present) }},
		{"LookupLink/miss", func() { snapshot.LookupLink(st.snap.Links4, missing) }},
		{"LookupAS/hit", func() { i, _ := st.idx.LookupAS(asn); st.idx.Neighbors(i) }},
		{"LookupAS/miss", func() { st.idx.LookupAS(asrel.ASN(4200000000)) }},
		{"Link/hit", func() { st.idx.Link(present.Lo, present.Hi) }},
		{"Link/miss", func() { st.idx.Link(missing.Lo, missing.Hi) }},
		{"Link/hybrid", func() { st.idx.Link(hybrid.Hi, hybrid.Lo) }},
		{"ClassHybrids", func() { st.idx.ClassHybrids(snap.Hybrids[0].Class) }},
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

// TestQueryValueMatchesParseQuery holds queryValue to url.Values.Get
// semantics over the corner cases of url.ParseQuery: repeated keys,
// escapes, semicolons, empty pairs, bad escapes in keys and values.
func TestQueryValueMatchesParseQuery(t *testing.T) {
	raws := []string{
		"", "a=1&b=2", "b=2&a=1&a=3", "a", "a=", "=1&a=2", "&&a=1&", "a=1;b=2&a=3",
		"a%3D=1&a=2", "%61=4", "a=%zz&a=5", "a%zz=1&a=6", "a=x+y%20z", "a+b=1&a b=2",
		"at=2026-01-02T03:04:05Z", "at=2026-01-02T03%3A04%3A05%2B01%3A00", "class=h1&class=h2",
		"offset=-1&limit=1e3", "a=1&a=2;", ";&a=7",
	}
	for _, raw := range raws {
		want, _ := url.ParseQuery(raw)
		for _, key := range []string{"a", "b", "a b", "at", "class", "offset", "limit", ""} {
			if got := queryValue(raw, key); got != want.Get(key) {
				t.Errorf("queryValue(%q, %q) = %q, want %q", raw, key, got, want.Get(key))
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { queryValue("a=64500&b=64501&at=17", "b") }); n != 0 {
		t.Errorf("queryValue allocates %v objects on an unescaped query, want 0", n)
	}
}
