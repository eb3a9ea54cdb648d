package serve

// Observability and admission-control middleware for the serving
// layer: per-endpoint request metrics, structured JSON access logging,
// per-request timeouts, and a concurrency-limit load-shedder. The
// whole stack is opt-in per concern — a Server constructed without any
// of the options serves exactly as before, through a zero-overhead
// fast path — and the instrumented path is built to stay within the
// allocation budget TestInstrumentedAllocBudget enforces on the hot
// read endpoints (at most two allocations per request over the bare
// server): label sets are pre-registered per endpoint at construction
// (request handling never renders a label), the shedder is one atomic
// add/compare, and the histogram Observe is lock-free.

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"hybridrel/internal/obs"
	"hybridrel/internal/snapshot"
)

// endpointNames is the fixed route vocabulary of the metrics layer;
// every request is classified into one of these (or "other") without
// touching the mux, so shed and timeout responses are attributed to
// the endpoint the client asked for even when no handler ran.
var endpointNames = []string{
	"/v1/rel", "/v1/as/{asn}", "/v1/hybrids", "/v1/stats", "/v1/changes",
	"/v1/reload", "/healthz", "/readyz", "/metrics", "other",
}

// endpointOf classifies a request path into the metrics vocabulary.
func endpointOf(path string) string {
	switch path {
	case "/v1/rel", "/v1/hybrids", "/v1/stats", "/v1/changes",
		"/v1/reload", "/healthz", "/readyz", "/metrics":
		return path
	}
	if strings.HasPrefix(path, "/v1/as/") {
		return "/v1/as/{asn}"
	}
	return "other"
}

// statusClasses label the five HTTP status classes.
var statusClasses = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// endpointInstruments is one endpoint's pre-registered instrument set.
type endpointInstruments struct {
	inflight *obs.Gauge
	latency  *obs.Histogram
	codes    [5]*obs.Counter
}

func (e *endpointInstruments) observe(status int, d time.Duration) {
	class := status/100 - 1
	if class < 0 || class > 4 {
		class = 4
	}
	e.codes[class].Inc()
	e.latency.Observe(d.Nanoseconds())
}

// serveMetrics is the serving layer's instrument set over one
// registry: per-endpoint request counters, in-flight gauges and
// latency histograms, the admission-control tallies, and the snapshot
// freshness gauges read straight off the server's atomic state.
type serveMetrics struct {
	byEndpoint map[string]*endpointInstruments
	shed       *obs.Counter
	timeouts   *obs.Counter
	// changes counts journal events by kind, indexed by
	// snapshot.ChangeKind.
	changes [snapshot.NumChangeKinds]*obs.Counter
}

func newServeMetrics(reg *obs.Registry, s *Server) *serveMetrics {
	m := &serveMetrics{byEndpoint: make(map[string]*endpointInstruments, len(endpointNames))}
	for _, ep := range endpointNames {
		inst := &endpointInstruments{
			inflight: reg.Gauge("hybridrel_http_inflight_requests",
				"Requests currently being served.", obs.Labels{"endpoint": ep}),
			latency: reg.Histogram("hybridrel_http_request_duration_ns",
				"Request latency in nanoseconds (power-of-two buckets).", obs.Labels{"endpoint": ep}),
		}
		for i, class := range statusClasses {
			inst.codes[i] = reg.Counter("hybridrel_http_requests_total",
				"Requests served, by endpoint and status class.",
				obs.Labels{"endpoint": ep, "code": class})
		}
		m.byEndpoint[ep] = inst
	}
	m.shed = reg.Counter("hybridrel_http_requests_shed_total",
		"Requests rejected with 429 by the in-flight load-shedder.", nil)
	m.timeouts = reg.Counter("hybridrel_http_request_timeouts_total",
		"Requests answered 503 by the per-request timeout.", nil)
	for i := range m.changes {
		m.changes[i] = reg.Counter("hybridrel_changes_emitted_total",
			"Relationship-change events appended to the journal, by kind.",
			obs.Labels{"kind": snapshot.ChangeKind(i).String()})
	}

	reg.GaugeFunc("hybridrel_snapshot_generation",
		"Monotone install counter of the serving snapshot.", nil, func() float64 {
			if st := s.state.Load(); st != nil {
				return float64(st.generation)
			}
			return 0
		})
	reg.GaugeFunc("hybridrel_snapshot_age_seconds",
		"Age of the serving snapshot; NaN before the first load.", nil, func() float64 {
			if st := s.state.Load(); st != nil {
				return time.Since(st.loadedAt).Seconds()
			}
			return math.NaN()
		})
	reg.GaugeFunc("hybridrel_snapshot_loaded",
		"1 once a snapshot is installed (the readiness signal).", nil, func() float64 {
			if s.state.Load() != nil {
				return 1
			}
			return 0
		})
	return m
}

// endpoint returns the instrument set of a classified endpoint.
func (m *serveMetrics) endpoint(ep string) *endpointInstruments {
	return m.byEndpoint[ep]
}

// statusRecorder captures the status code and body size a handler
// writes, so the outer middleware can attribute them to metrics and
// the access log after the fact.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// timedRequest enforces http.TimeoutHandler semantics without a
// per-request goroutine: the request runs on its own goroutine as
// usual, a timer fires at the deadline, and whichever side writes
// first wins — if the deadline passes before the handler produced a
// byte, the timer writes the 503 and every later handler write is
// discarded.
//
// The object also implements context.Context so well-behaved handlers
// observe the same deadline through r.Context() and abort instead of
// running to completion against a dead response. The whole bundle —
// write barrier, timer, deadline context — is pooled, so arming a
// deadline costs a pool checkout and a timer Reset instead of the five
// allocations of context.WithTimeout + time.AfterFunc per request
// (that allocation tax alone would exceed TestInstrumentedAllocBudget).
//
// Context trade-off, deliberate: parent *cancellation* does not
// propagate to Done() — only the deadline fires it. Parent Values pass
// through. The deadline itself bounds any wait a handler blocks on,
// which is the guarantee this middleware exists to give; wiring parent
// cancellation through would need a goroutine or registration per
// request.
type timedRequest struct {
	mu       sync.Mutex
	rec      *statusRecorder
	metrics  *serveMetrics
	timedOut bool
	finished bool
	// cbDone records that the timer callback has fully run; release
	// only returns the object to the pool when no callback is pending.
	cbDone bool
	// detached receives the handler's header writes after a timeout,
	// so late mutations never race the already-sent response.
	detached http.Header

	// timer fires onTimeout; it is created once per pooled object and
	// re-armed with Reset on every checkout.
	timer *time.Timer

	// context.Context state. done is allocated only if a handler asks
	// for Done(), which the fast lookup handlers never do.
	parent   context.Context
	deadline time.Time
	done     chan struct{}
	err      error
}

var timedRequestPool = sync.Pool{New: func() any {
	t := &timedRequest{}
	t.timer = time.AfterFunc(math.MaxInt64, t.onTimeout)
	t.timer.Stop()
	return t
}}

// armTimedRequest checks a timedRequest out of the pool and arms its
// deadline.
func armTimedRequest(rec *statusRecorder, m *serveMetrics, parent context.Context, d time.Duration) *timedRequest {
	t := timedRequestPool.Get().(*timedRequest)
	t.rec, t.metrics = rec, m
	t.timedOut, t.finished, t.cbDone = false, false, false
	t.detached = nil
	t.parent, t.deadline = parent, time.Now().Add(d)
	t.done, t.err = nil, nil
	t.timer.Reset(d)
	return t
}

func (t *timedRequest) Header() http.Header {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.timedOut {
		if t.detached == nil {
			t.detached = make(http.Header)
		}
		return t.detached
	}
	return t.rec.Header()
}

func (t *timedRequest) WriteHeader(code int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.timedOut {
		return
	}
	t.rec.WriteHeader(code)
}

func (t *timedRequest) Write(b []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.timedOut {
		return len(b), nil
	}
	return t.rec.Write(b)
}

// Deadline, Done, Err, and Value implement context.Context.
func (t *timedRequest) Deadline() (time.Time, bool) { return t.deadline, true }

func (t *timedRequest) Done() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done == nil {
		t.done = make(chan struct{})
		if t.err != nil {
			close(t.done)
		}
	}
	return t.done
}

func (t *timedRequest) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

func (t *timedRequest) Value(key any) any { return t.parent.Value(key) }

// onTimeout fires at the deadline: cancel the context, and if the
// handler has not produced any response yet, answer 503 on its behalf.
func (t *timedRequest) onTimeout() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cbDone = true
	if t.finished {
		// The request already completed (and the object may have been
		// recycled-in-place by release); touch nothing.
		return
	}
	t.err = context.DeadlineExceeded
	if t.done != nil {
		close(t.done)
	}
	if t.rec.status == 0 {
		t.timedOut = true
		if t.metrics != nil {
			t.metrics.timeouts.Inc()
		}
		writeError(t.rec, http.StatusServiceUnavailable, "request timed out")
	}
}

// release marks the handler done and returns the object to the pool
// when no timer callback can still be pending. Acquiring the mutex
// synchronizes with a concurrently firing timer, so after release the
// caller may read the recorder without racing its 503 write. In the
// rare window where the timer has fired but its callback has not run
// yet, the object is simply dropped for the GC — the late callback
// sees finished and touches nothing.
func (t *timedRequest) release() {
	stopped := t.timer.Stop()
	t.mu.Lock()
	t.finished = true
	safe := stopped || t.cbDone
	if safe {
		t.rec, t.metrics, t.parent = nil, nil, nil
		t.detached, t.done, t.err = nil, nil, nil
	}
	t.mu.Unlock()
	if safe {
		timedRequestPool.Put(t)
	}
}

// accessLogger writes one JSON object per request, newline-delimited.
// Writes are serialized; the logger is shared by every request.
type accessLogger struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func newAccessLogger(w io.Writer) *accessLogger {
	return &accessLogger{enc: json.NewEncoder(w)}
}

// accessRecord is the structured log schema, pinned by tests and
// documented in the README's Operations section.
type accessRecord struct {
	Time       string  `json:"time"`
	Method     string  `json:"method"`
	Path       string  `json:"path"`
	Endpoint   string  `json:"endpoint"`
	Status     int     `json:"status"`
	Bytes      int64   `json:"bytes"`
	DurationMS float64 `json:"duration_ms"`
	Generation uint64  `json:"generation"`
}

func (l *accessLogger) log(r *http.Request, endpoint string, status int, bytes int64, d time.Duration, generation uint64) {
	rec := accessRecord{
		Time:       time.Now().UTC().Format(time.RFC3339Nano),
		Method:     r.Method,
		Path:       r.URL.Path,
		Endpoint:   endpoint,
		Status:     status,
		Bytes:      bytes,
		DurationMS: float64(d.Nanoseconds()) / 1e6,
		Generation: generation,
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_ = l.enc.Encode(rec)
}
