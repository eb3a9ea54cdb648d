package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"time"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgpsim"
	"hybridrel/internal/core"
	"hybridrel/internal/gen"
	"hybridrel/internal/live"
	"hybridrel/internal/obs"
	"hybridrel/internal/pipeline"
	"hybridrel/internal/serve"
	"hybridrel/internal/snapshot"
)

// Invariant names, shared by reports and tests.
const (
	InvParallelism  = "parallelism-identity"
	InvRoundTrip    = "snapshot-roundtrip"
	InvServe        = "serve-accessor-agreement"
	InvLive         = "live-batch-equivalence"
	InvChangeStream = "change-stream-determinism"
)

// checkInvariants runs the shared differential suite over one
// scenario's reference analysis: the concurrent pipeline must be
// byte-identical to the sequential one, the snapshot codec must
// round-trip to identical bytes, the serving layer's responses must
// agree with the Analysis accessors, and the live streaming ingester
// replaying the same world as a churning update feed must converge to
// a byte-identical snapshot.
func checkInvariants(ctx context.Context, src pipeline.Sources, in *gen.Internet, feedCfg bgpsim.FeedConfig, a *core.Analysis, parallelism int) []InvariantResult {
	verdict := func(name string, err error) InvariantResult {
		r := InvariantResult{Name: name, OK: err == nil}
		if err != nil {
			r.Detail = err.Error()
		}
		return r
	}
	snapBytes, err := snapshot.Bytes(snapshot.Capture(a))
	if err != nil {
		// Without reference bytes none of the differential checks can
		// run; report the failure on all of them.
		e := fmt.Errorf("encoding the reference snapshot: %w", err)
		return []InvariantResult{
			verdict(InvParallelism, e), verdict(InvRoundTrip, e),
			verdict(InvServe, e), verdict(InvLive, e),
			verdict(InvChangeStream, e),
		}
	}
	return []InvariantResult{
		verdict(InvParallelism, checkParallelism(ctx, src, snapBytes, parallelism)),
		verdict(InvRoundTrip, checkRoundTrip(snapBytes)),
		verdict(InvServe, checkServe(a)),
		verdict(InvLive, checkLive(in, feedCfg, a, snapBytes)),
		verdict(InvChangeStream, checkChangeStream(in, feedCfg, a)),
	}
}

// checkLive replays the scenario's world as a seeded BGP UPDATE stream
// — full announcement phase, then flap churn with withdrawals — through
// the live ingest subsystem, and requires the resulting snapshot to be
// byte-identical to the batch reference once the feed has converged
// back to the full table.
func checkLive(in *gen.Internet, feedCfg bgpsim.FeedConfig, a *core.Analysis, want []byte) error {
	feed, err := bgpsim.GenerateFeed(in, feedCfg)
	if err != nil {
		return fmt.Errorf("generating the feed: %w", err)
	}
	if !feed.Converged() {
		return fmt.Errorf("churn-only feed did not converge")
	}
	withdrawals := 0
	for _, ev := range feed.Events {
		if ev.Withdraw {
			withdrawals++
		}
	}
	if feedCfg.ChurnEvents > 0 && withdrawals == 0 {
		return fmt.Errorf("churn feed carried no withdrawals; invariant would be vacuous")
	}
	ap := live.NewApplier(live.Config{Dict: a.Dict})
	for i, ev := range feed.Events {
		if err := ap.Apply(live.Event{Vantage: ev.Vantage, Data: ev.Data}); err != nil {
			return fmt.Errorf("applying event %d/%d: %w", i, len(feed.Events), err)
		}
	}
	got, err := snapshot.Bytes(ap.Snapshot())
	if err != nil {
		return fmt.Errorf("encoding the live snapshot: %w", err)
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("live snapshot differs from batch after %d events (%d withdrawals): %d vs %d bytes",
			len(feed.Events), withdrawals, len(got), len(want))
	}
	// Refcount conservation: every RIB entry holds exactly one record
	// reference, so the active reference totals must equal the RIB size
	// at quiescence. A surplus is a leaked Retain (the identical-path
	// re-announcement bug class), a deficit a double Release — either
	// silently corrupts the table under continued flapping even when
	// the snapshot above still matched.
	if refs := ap.D4.ActiveRefs() + ap.D6.ActiveRefs(); refs != ap.RIBSize() {
		return fmt.Errorf("refcount conservation violated: %d active references vs %d RIB routes",
			refs, ap.RIBSize())
	}
	return nil
}

// changeStreamSwaps is how many intermediate snapshots the change-
// stream replay installs before the final one.
const changeStreamSwaps = 16

// checkChangeStream replays the scenario's feed through a fresh live
// applier and serving layer twice, installing snapshots on a fixed
// cadence and draining GET /v1/changes with cursor pagination each
// time; the two replays must produce byte-identical change streams.
// Nothing in the pipeline — map iteration, scheduling, time — may leak
// into the journal.
func checkChangeStream(in *gen.Internet, feedCfg bgpsim.FeedConfig, a *core.Analysis) error {
	replay := func() ([]byte, error) {
		feed, err := bgpsim.GenerateFeed(in, feedCfg)
		if err != nil {
			return nil, fmt.Errorf("generating the feed: %w", err)
		}
		ap := live.NewApplier(live.Config{Dict: a.Dict})
		srv := serve.New(nil, serve.WithHistory(4))
		chunk := max(1, len(feed.Events)/changeStreamSwaps)
		for i, ev := range feed.Events {
			if err := ap.Apply(live.Event{Vantage: ev.Vantage, Data: ev.Data}); err != nil {
				return nil, fmt.Errorf("applying event %d/%d: %w", i, len(feed.Events), err)
			}
			if (i+1)%chunk == 0 {
				srv.Load(ap.Snapshot())
			}
		}
		srv.Load(ap.Snapshot())

		// Drain the journal in small pages so the cursor logic is part
		// of what determinism covers, accumulating the raw bodies.
		var stream []byte
		since := uint64(0)
		for {
			req := httptest.NewRequest("GET",
				fmt.Sprintf("/v1/changes?since=%d&limit=64", since), nil)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("GET /v1/changes?since=%d: status %d: %s",
					since, rec.Code, rec.Body.String())
			}
			stream = append(stream, rec.Body.Bytes()...)
			var page serve.ChangesResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
				return nil, fmt.Errorf("GET /v1/changes: bad JSON: %w", err)
			}
			if !page.HasMore {
				return stream, nil
			}
			if page.Next <= since {
				return nil, fmt.Errorf("GET /v1/changes cursor did not advance past %d", since)
			}
			since = page.Next
		}
	}
	first, err := replay()
	if err != nil {
		return fmt.Errorf("first replay: %w", err)
	}
	second, err := replay()
	if err != nil {
		return fmt.Errorf("second replay: %w", err)
	}
	if !bytes.Equal(first, second) {
		return fmt.Errorf("change streams differ between identical replays (%d vs %d bytes)",
			len(first), len(second))
	}
	return nil
}

// checkParallelism re-runs the pipeline with a concurrent worker pool
// and requires its snapshot to be byte-identical to the sequential
// reference — every derived product, not just headline counters, must
// be independent of scheduling.
func checkParallelism(ctx context.Context, src pipeline.Sources, want []byte, parallelism int) error {
	aN, err := core.RunPipeline(ctx, src, pipeline.WithParallelism(parallelism))
	if err != nil {
		return fmt.Errorf("parallel run: %w", err)
	}
	got, err := snapshot.Bytes(snapshot.Capture(aN))
	if err != nil {
		return fmt.Errorf("encoding the parallel snapshot: %w", err)
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("parallelism %d snapshot differs from sequential (%d vs %d bytes)",
			parallelism, len(got), len(want))
	}
	return nil
}

// checkRoundTrip decodes the reference bytes and re-encodes them; the
// codec must reproduce the exact same bytes.
func checkRoundTrip(want []byte) error {
	s, err := snapshot.Read(bytes.NewReader(want))
	if err != nil {
		return fmt.Errorf("decoding: %w", err)
	}
	got, err := snapshot.Bytes(s)
	if err != nil {
		return fmt.Errorf("re-encoding: %w", err)
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("re-encoded snapshot differs (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// relSampleLimit bounds the /v1/rel probes per scenario.
const relSampleLimit = 32

// checkServe loads a fresh snapshot of a into the serving layer and
// requires the HTTP responses to agree with the Analysis accessors:
// /v1/stats against the headline statistics, /v1/hybrids against the
// hybrid list, /v1/rel against the relationship tables, and /healthz
// against the index sizes. The server runs with the full production
// middleware stack enabled — metrics, request timeout, load shedder —
// so the agreement invariant also proves the observability layer never
// perturbs a response body, and the /metrics exposition must parse and
// account for every probe the invariant made.
func checkServe(a *core.Analysis) error {
	snap := snapshot.Capture(a)
	reg := obs.NewRegistry()
	srv := serve.New(snap,
		serve.WithMetrics(reg),
		serve.WithRequestTimeout(time.Minute),
		serve.WithMaxInflight(1<<20))

	get := func(url string, out any) error {
		req := httptest.NewRequest("GET", url, nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("GET %s: status %d: %s", url, rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			return fmt.Errorf("GET %s: bad JSON: %w", url, err)
		}
		return nil
	}

	var stats serve.StatsResponse
	if err := get("/v1/stats", &stats); err != nil {
		return err
	}
	// Freshness fields are serving-side and per-request; sanity-check
	// them, then neutralize before the structural comparison.
	if stats.Generation < 1 {
		return fmt.Errorf("/v1/stats generation %d, want >= 1 after one load", stats.Generation)
	}
	if stats.SnapshotAgeSeconds < 0 {
		return fmt.Errorf("/v1/stats snapshot_age_seconds %v is negative", stats.SnapshotAgeSeconds)
	}
	wantStats := serve.StatsOf(snap)
	wantStats.Generation = stats.Generation
	wantStats.SnapshotAgeSeconds = stats.SnapshotAgeSeconds
	if !reflect.DeepEqual(stats, wantStats) {
		return fmt.Errorf("/v1/stats disagrees with the accessors:\ngot  %+v\nwant %+v", stats, wantStats)
	}

	var health serve.HealthResponse
	if err := get("/healthz", &health); err != nil {
		return err
	}
	if health.Hybrids != len(a.Hybrids()) ||
		health.Links4 != len(snap.Links4) || health.Links6 != len(snap.Links6) {
		return fmt.Errorf("/healthz counts %+v disagree with the analysis", health)
	}

	hybrids := a.Hybrids()
	var page serve.HybridsResponse
	if err := get(fmt.Sprintf("/v1/hybrids?limit=%d", serve.MaxLimit), &page); err != nil {
		return err
	}
	if page.Total != len(hybrids) {
		return fmt.Errorf("/v1/hybrids total %d, analysis has %d", page.Total, len(hybrids))
	}
	want := serve.HybridsOf(hybrids[:min(len(hybrids), serve.MaxLimit)])
	if len(want) == 0 {
		want = []serve.HybridJSON{}
	}
	if !reflect.DeepEqual(page.Hybrids, want) {
		return fmt.Errorf("/v1/hybrids page disagrees with the analysis hybrid list")
	}

	// Probe /v1/rel over every hybrid link (both orientations) and a
	// slice of the plain dual-stack population.
	probe := func(x, y asrel.ASN) error {
		var rel serve.RelResponse
		if err := get(fmt.Sprintf("/v1/rel?a=%d&b=%d", x, y), &rel); err != nil {
			return err
		}
		k := asrel.Key(x, y)
		if rel.V4 != a.Rel4.Get(x, y).String() || rel.V6 != a.Rel6.Get(x, y).String() {
			return fmt.Errorf("/v1/rel %s: served %s/%s, accessors %s/%s",
				k, rel.V4, rel.V6, a.Rel4.Get(x, y), a.Rel6.Get(x, y))
		}
		if rel.In4 != a.D4.HasLink(k) || rel.In6 != a.D6.HasLink(k) {
			return fmt.Errorf("/v1/rel %s: plane membership disagrees", k)
		}
		if rel.Visibility6 != a.D6.LinkVisibility(k) {
			return fmt.Errorf("/v1/rel %s: visibility %d, accessor %d",
				k, rel.Visibility6, a.D6.LinkVisibility(k))
		}
		wantClass := asrel.Classify(a.Rel4.GetKey(k), a.Rel6.GetKey(k))
		isHybrid := wantClass != asrel.NotHybrid && rel.In4 && rel.In6
		if rel.Hybrid != isHybrid || (isHybrid && rel.Class != wantClass.String()) {
			return fmt.Errorf("/v1/rel %s: hybrid verdict %v/%q, want %v/%q",
				k, rel.Hybrid, rel.Class, isHybrid, wantClass)
		}
		return nil
	}
	probed := 0
	for _, h := range hybrids {
		if probed >= relSampleLimit {
			break
		}
		if err := probe(h.Key.Lo, h.Key.Hi); err != nil {
			return err
		}
		if err := probe(h.Key.Hi, h.Key.Lo); err != nil {
			return err
		}
		probed++
	}
	for _, l := range snap.Links6 {
		if probed >= 2*relSampleLimit {
			break
		}
		if err := probe(l.Key.Lo, l.Key.Hi); err != nil {
			return err
		}
		probed++
	}

	// The middleware saw every request above; the exposition must parse
	// and the per-endpoint counters must account for all of them.
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d", rec.Code)
	}
	exp, err := obs.ParseExposition(rec.Body)
	if err != nil {
		return fmt.Errorf("/metrics exposition does not parse: %w", err)
	}
	if got, ok := exp.Value(`hybridrel_http_requests_total{code="2xx",endpoint="/v1/rel"}`); !ok || got == 0 {
		return fmt.Errorf("/metrics rel counter %v (present %v) after %d probes", got, ok, probed)
	}
	if got, ok := exp.Value("hybridrel_snapshot_generation"); !ok || got < 1 {
		return fmt.Errorf("/metrics snapshot generation %v (present %v)", got, ok)
	}
	return nil
}
