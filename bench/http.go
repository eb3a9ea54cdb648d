package main

// The loopback HTTP side of the serving workloads: the server under
// test on 127.0.0.1, a minimal keep-alive HTTP/1.1 client, the
// closed-loop reader and the /metrics scrape.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hybridrel/internal/asrel"
	"hybridrel/internal/obs"
	"hybridrel/internal/serve"
	"hybridrel/internal/snapshot"
)

// productionOptions are the serve options hybridserve runs with by
// default (history is -history, on in -live mode).
func productionOptions(reg *obs.Registry, history int) []serve.Option {
	return []serve.Option{
		serve.WithMetrics(reg),
		serve.WithRequestTimeout(30 * time.Second),
		serve.WithReloadTimeout(5 * time.Minute),
		serve.WithMaxInflight(1024),
		serve.WithHistory(history),
	}
}

// spanHeader carries a sampled request's trace and parent span ids to
// the server side, so the handler span joins the client's trace.
const spanHeader = "X-Bench-Span"

// tracedHandler records a span around ServeHTTP for every request that
// carries spanHeader.
type tracedHandler struct {
	next   http.Handler
	tracer atomic.Pointer[Tracer]
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	trace, parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
	if !ok {
		h.next.ServeHTTP(w, r)
		return
	}
	sp := h.tracer.Load().Open(handlerSpan(r.URL.Path), trace, parent, time.Now())
	h.next.ServeHTTP(w, r)
	sp.End()
}

func parseSpanHeader(v string) (trace, parent uint64, ok bool) {
	a, b, found := strings.Cut(v, "-")
	if !found {
		return 0, 0, false
	}
	t, err1 := strconv.ParseUint(a, 10, 64)
	p, err2 := strconv.ParseUint(b, 10, 64)
	return t, p, err1 == nil && err2 == nil
}

// Request kinds of the read mix.
const (
	kindRel = iota
	kindAS
	kindHybrids
	numKinds
)

var kindNames = [numKinds]string{"rel", "as", "hybrids"}

func handlerSpan(path string) string {
	switch {
	case path == "/v1/rel":
		return "serve.handler_rel"
	case strings.HasPrefix(path, "/v1/as/"):
		return "serve.handler_as"
	}
	return "serve.handler_hybrids"
}

// server is the system under test listening on loopback.
type server struct {
	srv     *serve.Server
	addr    string
	hs      *http.Server
	served  chan error
	handler *tracedHandler // nil in an untraced run

	// probe is the connection for readiness probes, reload probes and
	// the final scrape; requests counts every request the harness
	// completed against this server.
	probe    *conn
	requests atomic.Int64
}

// listen serves srv on a fresh loopback port and waits until /readyz
// answers 200.
func listen(ctx context.Context, srv *serve.Server, traced bool) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, addr: ln.Addr().String(), served: make(chan error, 1)}
	var h http.Handler = srv
	if traced {
		s.handler = &tracedHandler{next: srv}
		h = s.handler
	}
	s.hs = &http.Server{Handler: h}
	go func() { s.served <- s.hs.Serve(ln) }()
	for {
		if err := ctx.Err(); err != nil {
			s.stop()
			return nil, err
		}
		status, err := s.probeGet("/readyz", nil)
		if err != nil {
			s.stop()
			return nil, err
		}
		if status == http.StatusOK {
			return s, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// probeGet sends one GET on the probe connection; a non-nil body
// receives the response body.
func (s *server) probeGet(path string, body *bytes.Buffer) (int, error) {
	if s.probe == nil {
		c, err := dial(s.addr)
		if err != nil {
			return 0, err
		}
		s.probe = c
	}
	status, _, err := s.probe.get(path, body)
	if err != nil {
		return 0, err
	}
	s.requests.Add(1)
	return status, nil
}

func (s *server) closeProbe() {
	if s.probe != nil {
		s.probe.close()
		s.probe = nil
	}
}

// stop shuts the listener down and waits for Serve to return.
func (s *server) stop() {
	s.closeProbe()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.served
}

// scrape reads /metrics through obs's parser and checks that the
// request counter agrees with the requests the harness completed. It
// reports the histogram-derived /v1/rel median next to the harness's.
func (s *server) scrape(e *env) (*obs.Exposition, error) {
	want := s.requests.Load()
	var body bytes.Buffer
	status, err := s.probeGet("/metrics", &body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", status)
	}
	exp, err := obs.ParseExposition(&body)
	if err != nil {
		return nil, err
	}
	got := exp.Sum("hybridrel_http_requests_total{")
	e.chk.check(int64(got) == want, "/metrics counts %v requests, the harness completed %d", got, want)
	if p50, ok := histogramMedian(exp, "hybridrel_http_request_duration_ns", `endpoint="/v1/rel"`); ok {
		e.rec.set("obs.rel_p50_us", "us", p50/1e3, int(want))
		e.logf("/metrics: %v requests; /v1/rel p50 %.1f µs from the histogram", got, p50/1e3)
	}
	return exp, nil
}

// histogramMedian estimates a histogram series' median from its
// cumulative power-of-two buckets, interpolating linearly inside the
// bucket that holds it.
func histogramMedian(exp *obs.Exposition, name, labels string) (float64, bool) {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix, count := name+`_bucket{le="`, name+"_count"
	if labels != "" {
		prefix, count = name+"_bucket{"+labels+`,le="`, name+"_count{"+labels+"}"
	}
	for series, v := range exp.Samples {
		le, ok := strings.CutPrefix(series, prefix)
		if !ok {
			continue
		}
		bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64)
		if err != nil {
			continue // +Inf
		}
		bs = append(bs, bucket{bound, v})
	}
	total, ok := exp.Value(count)
	if !ok || total == 0 || len(bs) == 0 {
		return 0, false
	}
	slices.SortFunc(bs, func(a, b bucket) int {
		switch {
		case a.le < b.le:
			return -1
		case a.le > b.le:
			return 1
		}
		return 0
	})
	target := total / 2
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target {
			return lo + (b.le-lo)*(target-prev)/(b.cum-prev), true
		}
		lo, prev = b.le, b.cum
	}
	return bs[len(bs)-1].le, true
}

// conn is one keep-alive HTTP/1.1 connection.
type conn struct {
	c   net.Conn
	br  *bufio.Reader
	req []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReader(c)}, nil
}

func (c *conn) close() { c.c.Close() }

// get sends one GET and reads the whole response, into body when it is
// non-nil. It returns the status and the body size.
func (c *conn) get(path string, body *bytes.Buffer) (int, int64, error) {
	if err := c.send(path, ""); err != nil {
		return 0, 0, err
	}
	return c.read(body)
}

// send writes a GET request with optional extra header lines.
func (c *conn) send(path, header string) error {
	c.req = append(c.req[:0], "GET "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: bench\r\n"...)
	c.req = append(c.req, header...)
	c.req = append(c.req, "\r\n"...)
	_, err := c.c.Write(c.req)
	return err
}

// read reads one response, into body when it is non-nil.
func (c *conn) read(body *bytes.Buffer) (int, int64, error) {
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, 0, err
	}
	var w io.Writer = io.Discard
	if body != nil {
		body.Reset()
		w = body
	}
	n, err := io.Copy(w, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, 0, err
	}
	return resp.StatusCode, n, nil
}

// keySample is the seeded set of requests the readers draw from: links
// of either plane with the answer /v1/rel must give, link endpoints,
// and offsets into the hybrid list.
type keySample struct {
	rel     []relQuery
	as      []string
	hybrids []string
}

type relQuery struct {
	path string
	want serve.RelResponse
}

// sampleKeys draws n links of s, in random orientation, and the
// answers /v1/rel must give for them.
func sampleKeys(s *snapshot.Snapshot, seed int64, n int) *keySample {
	rng := rand.New(rand.NewSource(seed))
	hyb := make(map[asrel.LinkKey]asrel.HybridClass, len(s.Hybrids))
	for _, h := range s.Hybrids {
		hyb[h.Key] = h.Class
	}
	ks := &keySample{}
	total := len(s.Links4) + len(s.Links6)
	for i := 0; i < n && total > 0; i++ {
		j := rng.Intn(total)
		var k asrel.LinkKey
		if j < len(s.Links4) {
			k = s.Links4[j].Key
		} else {
			k = s.Links6[j-len(s.Links4)].Key
		}
		a, b := k.Lo, k.Hi
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		_, in4 := findLink(s.Links4, k)
		vis6, in6 := findLink(s.Links6, k)
		want := serve.RelResponse{
			A: uint32(a), B: uint32(b),
			V4: s.Rel4.Get(a, b).String(), V6: s.Rel6.Get(a, b).String(),
			In4: in4, In6: in6, DualStack: in4 && in6, Visibility6: vis6,
		}
		if c, ok := hyb[k]; ok {
			want.Hybrid, want.Class = true, c.String()
		}
		ks.rel = append(ks.rel, relQuery{path: fmt.Sprintf("/v1/rel?a=%d&b=%d", a, b), want: want})
		ks.as = append(ks.as, fmt.Sprintf("/v1/as/%d", a))
	}
	for i := 0; i < 1024; i++ {
		ks.hybrids = append(ks.hybrids, fmt.Sprintf("/v1/hybrids?offset=%d&limit=100", rng.Intn(max(len(s.Hybrids), 1))))
	}
	return ks
}

func findLink(ls []snapshot.Link, k asrel.LinkKey) (visibility int, ok bool) {
	i, found := slices.BinarySearchFunc(ls, k, func(l snapshot.Link, k asrel.LinkKey) int {
		switch {
		case l.Key.Lo != k.Lo:
			return int(int64(l.Key.Lo) - int64(k.Lo))
		case l.Key.Hi != k.Hi:
			return int(int64(l.Key.Hi) - int64(k.Hi))
		}
		return 0
	})
	if !found {
		return 0, false
	}
	return ls[i].Visibility, true
}

// checkEvery is how often a reader checks a /v1/rel body against the
// snapshot: one request in checkEvery.
const checkEvery = 64

// traceEvery is the per-kind span sampling: one request in N of each
// kind is traced, so the rare kinds still collect enough spans.
var traceEvery = [numKinds]int{kindRel: 64, kindAS: 8, kindHybrids: 1}

// reader is one closed-loop client on its own keep-alive connection.
// With mix set it sends the serving mix — 90% /v1/rel, 9% /v1/as/{asn},
// 1% /v1/hybrids — and otherwise only /v1/rel. With check set, one
// /v1/rel body in checkEvery is compared against the snapshot.
type reader struct {
	s      *server
	keys   *keySample
	rng    *rand.Rand
	mix    bool
	check  bool
	tracer *Tracer

	stats readStats
	sent  [numKinds]int // requests sent, by kind
	body  bytes.Buffer
}

// readStats summarizes what readers saw.
type readStats struct {
	rttUs    dist
	bytes    int64
	non200   int
	notFound int
	wallSec  float64
}

func (r *readStats) merge(o readStats) {
	r.rttUs = append(r.rttUs, o.rttUs...)
	r.bytes += o.bytes
	r.non200 += o.non200
	r.notFound += o.notFound
	r.wallSec = max(r.wallSec, o.wallSec)
}

// run sends requests back to back until stop is closed or ctx ends.
// A 404 is a correct answer for a link that vanished (live churn) and
// is only counted; transport errors, other non-200 answers and wrong
// bodies fail the request.
func (r *reader) run(ctx context.Context, e *env, stop <-chan struct{}) error {
	c, err := dial(r.s.addr)
	if err != nil {
		return err
	}
	defer c.close()
	start := time.Now()
	defer func() { r.stats.wallSec = time.Since(start).Seconds() }()
	for {
		select {
		case <-stop:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		kind := kindRel
		if r.mix {
			switch x := r.rng.Intn(100); {
			case x < 1:
				kind = kindHybrids
			case x < 10:
				kind = kindAS
			}
		}
		var path string
		q := &r.keys.rel[r.rng.Intn(len(r.keys.rel))]
		switch kind {
		case kindRel:
			path = q.path
		case kindAS:
			path = r.keys.as[r.rng.Intn(len(r.keys.as))]
		default:
			path = r.keys.hybrids[r.rng.Intn(len(r.keys.hybrids))]
		}
		r.sent[kind]++
		checkBody := r.check && kind == kindRel && r.sent[kind]%checkEvery == 0
		traced := r.tracer != nil && r.sent[kind]%traceEvery[kind] == 0
		status, n, rtt, err := r.get(c, path, checkBody, traced)
		e.chk.add(1)
		if err != nil {
			e.chk.fail("GET %s: %v", path, err)
			return nil
		}
		r.s.requests.Add(1)
		r.stats.rttUs = append(r.stats.rttUs, float64(rtt.Nanoseconds())/1e3)
		r.stats.bytes += n
		switch {
		case status == http.StatusOK:
			if checkBody {
				checkRel(e, r.body.Bytes(), q)
			}
		case status == http.StatusNotFound && !r.check:
			r.stats.notFound++
		default:
			r.stats.non200++
			e.chk.fail("GET %s: status %d", path, status)
		}
	}
}

// checkRel fails the request unless body is q's expected answer.
func checkRel(e *env, body []byte, q *relQuery) {
	var got serve.RelResponse
	if err := json.Unmarshal(body, &got); err != nil || got != q.want {
		e.chk.fail("GET %s: body %s, want %+v", q.path, body, q.want)
	}
}

// get sends one request and returns its status, body size and round
// trip. A traced request records its client-side stages and asks the
// server to record the handler span under the same trace.
func (r *reader) get(c *conn, path string, keepBody, traced bool) (int, int64, time.Duration, error) {
	var body *bytes.Buffer
	if keepBody {
		body = &r.body
	}
	start := time.Now()
	if !traced {
		status, n, err := c.get(path, body)
		return status, n, time.Since(start), err
	}
	root := r.tracer.Open("request", 0, 0, start)
	trace, id := root.IDs()
	sp := root.ChildAt("client.send", start)
	err := c.send(path, fmt.Sprintf("%s: %d-%d\r\n", spanHeader, trace, id))
	sp.End()
	if err != nil {
		return 0, 0, 0, err
	}
	sp = root.Child("client.receive")
	status, n, err := c.read(body)
	sp.End()
	end := time.Now()
	root.EndAt(end)
	return status, n, end.Sub(start), err
}

// runReaders runs the readers until stop closes and returns their
// merged statistics.
func runReaders(ctx context.Context, e *env, rs []*reader, stop <-chan struct{}) (readStats, error) {
	errs := make(chan error, len(rs))
	for _, r := range rs {
		go func(r *reader) { errs <- r.run(ctx, e, stop) }(r)
	}
	var err error
	for range rs {
		err = errors.Join(err, <-errs)
	}
	var all readStats
	for _, r := range rs {
		all.merge(r.stats)
	}
	return all, err
}

// recordReads reports the readers' per-layer metrics. In a traced
// phase it also splits each traced request's round trip into handler
// and network time by joining the client and handler spans.
func recordReads(e *env, st readStats) {
	n := len(st.rttUs)
	e.rec.set("read.qps", "1/s", float64(n)/st.wallSec, n)
	e.rec.set("read.p50_us", "us", st.rttUs.median(), n)
	tail, pct := st.rttUs.tail()
	e.rec.setPct("read.p99_us", "us", tail, n, pct)
	e.rec.set("serve.bytes_per_req", "bytes", ratio(float64(st.bytes), float64(n)), n)
	e.rec.set("serve.status_non200", "count", float64(st.non200), n)
	e.rec.set("serve.status_404", "count", float64(st.notFound), n)
	if e.tracer == nil {
		return
	}
	spans := e.tracer.Spans()
	for _, k := range kindNames {
		d := dist(durationsMs(spans, "serve.handler_"+k))
		for i := range d {
			d[i] *= 1e3
		}
		e.rec.set("serve.handler_"+k+"_us_p50", "us", d.median(), len(d))
		v, pct := d.tail()
		e.rec.setPct("serve.handler_"+k+"_us_p99", "us", v, len(d), pct)
	}
	handler := make(map[uint64]int64)
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "serve.handler_") {
			handler[s.Trace] = s.Dur()
		}
	}
	var net dist
	for _, s := range spans {
		if h, ok := handler[s.Trace]; ok && s.Parent == 0 && s.Name == "request" {
			net = append(net, float64(s.Dur()-h)/1e3)
		}
	}
	e.rec.set("serve.net_us_p50", "us", net.median(), len(net))
	e.logf("traced requests sampled 1 in %d (rel), %d (as), %d (hybrids)",
		traceEvery[kindRel], traceEvery[kindAS], traceEvery[kindHybrids])
}
