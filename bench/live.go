package main

// live-10k: the live path. The baseline world's bgpsim feed converges
// through a live.Applier at set-up; then churn arrives on an open loop
// through live.Runner, whose Swap is serve.Load, while one closed-loop
// reader queries /v1/rel.

import (
	"bytes"
	"context"
	"math/rand"
	"time"

	"hybridrel/internal/bgpsim"
	"hybridrel/internal/community"
	"hybridrel/internal/gen"
	"hybridrel/internal/live"
	"hybridrel/internal/obs"
	"hybridrel/internal/rpsl"
	"hybridrel/internal/scenario"
	"hybridrel/internal/serve"
	"hybridrel/internal/snapshot"
)

// The live cadence: updates arrive at liveRate per second, and a
// generation is captured and installed after liveEvery applied updates
// or liveInterval, whichever comes first. At 10k ASes one swap costs
// about 200 ms against 430 ms between swaps, so the writer is under
// half busy and freshness stays off saturation.
const (
	liveRate     = 600
	liveEvery    = 256
	liveInterval = time.Second
)

// splitReps is how many generations a traced run builds by hand after
// its measured phases, to time apart the stages live.Runner runs as one
// Applier.Snapshot call.
const splitReps = 8

type liveRun struct {
	e        *env
	irr      []byte
	announce []live.Event // the convergence phase of the feed
	churn    []live.Event // the churn the measured phases stream
	next     int          // next churn event to stream

	ap      *live.Applier
	metrics *live.Metrics
	s       *server
	keys    *keySample
	last    *snapshot.Snapshot // the newest installed generation

	swaps  int // generations live.Runner installed
	lagMax time.Duration
}

func runLive(ctx context.Context, e *env) error {
	start := time.Now()
	sc, err := scenario.Find("baseline")
	if err != nil {
		return err
	}
	tier := scenario.Tier10k
	if e.tiny {
		tier = scenario.TierShort
	}
	cfg := sc.Config(tier)
	cfg.Seed = e.seed
	in, err := gen.Build(cfg)
	if err != nil {
		return err
	}
	lr := &liveRun{e: e}
	var irr bytes.Buffer
	if err := in.WriteIRR(&irr); err != nil {
		return err
	}
	lr.irr = irr.Bytes()
	// Each flap is a withdrawal and a re-announcement: enough flaps for
	// the whole run at liveRate and the traced run's stage split, plus
	// slack.
	feed, err := bgpsim.GenerateFeed(in, bgpsim.FeedConfig{
		Seed:        e.seed ^ 0x11fe,
		ChurnEvents: int(e.seconds.Seconds()*liveRate)/2 + splitReps*liveEvery/2 + 256,
	})
	if err != nil {
		return err
	}
	for i, ev := range feed.Events {
		le := live.Event{Vantage: ev.Vantage, Data: ev.Data}
		if i < feed.NumRoutes() {
			lr.announce = append(lr.announce, le)
		} else {
			lr.churn = append(lr.churn, le)
		}
	}
	e.logf("inputs: %d ASes, %d routes to converge, %d churn events at %d/s", cfg.NumASes, len(lr.announce), len(lr.churn), liveRate)
	in, feed = nil, nil
	if err := e.inputsReady(start); err != nil {
		return err
	}

	if _, err := setUp(e, func() (*liveRun, func(), error) {
		err := lr.setUp(ctx)
		return lr, func() {
			lr.s.stop()
			lr.ap, lr.s, lr.last = nil, nil, nil // the next set-up starts from a released heap
		}, err
	}); err != nil {
		return err
	}
	defer lr.s.stop()
	lr.keys = sampleKeys(lr.last, e.seed, 1<<14)
	if err := e.measure(ctx, "live.generation", lr.phase); err != nil {
		return err
	}
	if err := lr.finish(); err != nil {
		return err
	}
	if e.tracer != nil {
		return lr.splitStages()
	}
	return nil
}

// setUp is the live system's set-up, from the first call into it to
// the first 200 on /readyz: mine the IRR dictionary, converge the
// routing table through a fresh Applier, capture the first generation
// and serve it.
func (lr *liveRun) setUp(ctx context.Context) error {
	e := lr.e
	objs, _, err := rpsl.Parse(bytes.NewReader(lr.irr))
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	metrics := live.NewMetrics(reg)
	ap := live.NewApplier(live.Config{
		Dict:           community.FromIRR(objs),
		DirtyThreshold: live.DefaultDirtyThreshold,
		Metrics:        metrics,
	})
	for _, ev := range lr.announce {
		if err := ap.Apply(ev); err != nil {
			return err
		}
	}
	// Resolve apart from the capture, so the capture's allocation can
	// be read on its own; Snapshot resolves first either way.
	ap.Resolve()
	a0 := allocatedBytes()
	snap := ap.Snapshot()
	e.rec.set("live.snapshot_alloc_mb", "MB", float64(allocatedBytes()-a0)/(1<<20), 1)
	srv := serve.New(nil, productionOptions(reg, 16)...)
	a0 = allocatedBytes()
	srv.Load(snap)
	e.rec.set("serve.load_alloc_mb", "MB", float64(allocatedBytes()-a0)/(1<<20), 1)
	s, err := listen(ctx, srv, e.traced)
	if err != nil {
		return err
	}
	lr.ap, lr.metrics, lr.s, lr.last = ap, metrics, s, snap
	lr.swaps = 0
	return nil
}

// phase streams d's worth of churn. The operation is one update, and
// its latency is its freshness: from the instant the open loop was due
// to send it to the install of the first generation that contains it.
func (lr *liveRun) phase(ctx context.Context, d time.Duration) (phase, error) {
	e := lr.e
	n := min(int(d.Seconds()*liveRate), len(lr.churn)-lr.next)
	events := lr.churn[lr.next : lr.next+n]
	lr.next += n

	if lr.s.handler != nil {
		lr.s.handler.tracer.Store(e.tracer)
	}
	stop := make(chan struct{})
	readDone := make(chan struct{})
	var st readStats
	var readErr error
	go func() {
		defer close(readDone)
		r := &reader{s: lr.s, keys: lr.keys, tracer: e.tracer, rng: rand.New(rand.NewSource(e.seed + int64(lr.next)))}
		st, readErr = runReaders(ctx, e, []*reader{r}, stop)
	}()

	// hybridserve buffers the same 256 events between feed and runner.
	ch := make(chan live.Event, 256)
	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(i) * time.Second / liveRate) }
	fed := make(chan time.Duration, 1)
	go func() { fed <- openLoop(ctx, ch, events, due) }()

	inc0, full0 := lr.ap.Resolves()
	p, gens, err := lr.run(ctx, ch, due)
	lr.lagMax = max(lr.lagMax, <-fed)
	p.wall = time.Since(start)
	close(stop)
	<-readDone
	if err != nil {
		return p, err
	}
	if readErr != nil {
		return p, readErr
	}
	e.chk.add(len(events))
	recordReads(e, st)
	if e.tracer != nil {
		lr.recordGenerations(gens, p.wall, inc0, full0)
	}
	return p, nil
}

// openLoop sends each event when it is due, whatever the system's state —
// an open loop — and closes ch after the last. It returns how late the
// latest send ran.
func openLoop(ctx context.Context, ch chan<- live.Event, events []live.Event, due func(int) time.Time) time.Duration {
	defer close(ch)
	var lag time.Duration
	for i, ev := range events {
		if err := ctx.Err(); err != nil {
			return lag
		}
		time.Sleep(time.Until(due(i)))
		select {
		case ch <- ev:
		case <-ctx.Done():
			return lag
		}
		lag = max(lag, time.Since(due(i)))
	}
	return lag
}

// generation is one install a traced phase saw: when its oldest update
// was due, when Swap began and ended, the swap histogram's sum when Swap
// began, and how many updates were left waiting in the feed.
type generation struct {
	due, enter, end time.Time
	swapSum         uint64
	backlog         int
}

// run drives one phase through live.Runner, as hybridserve -live does,
// with serve.Load as its Swap. Swap stamps every update the generation
// holds with its freshness and, in a traced phase, notes the generation.
func (lr *liveRun) run(ctx context.Context, ch chan live.Event, due func(int) time.Time) (phase, []generation, error) {
	var (
		p         phase
		gens      []generation
		installed int
	)
	base, _ := lr.ap.Applied()
	traced := lr.e.tracer != nil
	r := &live.Runner{
		Applier:  lr.ap,
		Every:    liveEvery,
		Interval: liveInterval,
		Swap: func(s *snapshot.Snapshot) error {
			enter := time.Now()
			lr.s.srv.Load(s)
			now := time.Now()
			oldest := installed
			// Swap runs on the applier's goroutine, so reading the
			// applied count here is race-free.
			applied, _ := lr.ap.Applied()
			for ; installed < applied-base; installed++ {
				p.ops = append(p.ops, float64(now.Sub(due(installed)).Nanoseconds())/1e6)
			}
			if traced {
				gens = append(gens, generation{
					due: due(oldest), enter: enter, end: now,
					swapSum: lr.metrics.SwapDuration.Sum(), backlog: len(ch),
				})
			}
			lr.last = s
			lr.swaps++
			return nil
		},
	}
	err := r.Run(ctx, ch)
	return p, gens, err
}

// recordGenerations writes one trace per generation of a traced phase
// and reports the live layer's metrics. live.Runner times each swap —
// Applier.Snapshot, then Swap — into hybridrel_live_swap_duration_ns
// right after Swap returns, so the histogram's sum grows by exactly one
// swap between two Swap calls: a generation's swap took the difference
// between the sum the next Swap (or the end of the phase) read and its
// own, and began that long before its install ended. The trace holds the
// cadence (from the oldest update's due time until the swap began, the
// wait for the generation to fill with every apply inside it),
// live.snapshot (Applier.Snapshot: resolve, assemble, capture) and
// serve.load.
func (lr *liveRun) recordGenerations(gens []generation, wall time.Duration, inc0, full0 int) {
	e, rec := lr.e, lr.e.rec
	end := lr.metrics.SwapDuration.Sum()
	var (
		swaps   dist
		busy    time.Duration
		backlog int
	)
	for i, g := range gens {
		next := end
		if i+1 < len(gens) {
			next = gens[i+1].swapSum
		}
		dur := time.Duration(next - g.swapSum)
		start := g.end.Add(-dur)
		if start.Before(g.due) {
			start = g.due
		}
		if start.After(g.enter) {
			start = g.enter
		}
		root := e.tracer.Open("live.generation", 0, 0, g.due)
		root.ChildAt("live.cadence", g.due).EndAt(start)
		root.ChildAt("live.snapshot", start).EndAt(g.enter)
		root.ChildAt("serve.load", g.enter).EndAt(g.end)
		root.EndAt(g.end)
		swaps = append(swaps, float64(dur.Nanoseconds())/1e6)
		busy += dur
		backlog = max(backlog, g.backlog)
	}
	e.recordSpanDist("live.snapshot")
	e.recordSpanDist("serve.load")
	rec.set("live.swap_ms_p50", "ms", swaps.median(), len(swaps))
	rec.set("live.busy_frac", "ratio", busy.Seconds()/wall.Seconds(), len(swaps))
	rec.set("live.backlog_max", "count", float64(backlog), len(gens))
	inc1, full1 := lr.ap.Resolves()
	rec.set("live.incremental_share", "ratio", ratio(float64(inc1-inc0), float64(inc1-inc0+full1-full0)), inc1-inc0+full1-full0)
	e.logf("resolves in the traced phase: %d incremental, %d full (both planes)", inc1-inc0, full1-full0)
}

// splitStages times apart, after the measured phases, the stages that
// live.Runner runs as one Applier.Snapshot call: splitReps times, it
// applies the next liveEvery churn updates, then times Resolve, then the
// capture that follows it.
func (lr *liveRun) splitStages() error {
	var apply, resolve, capture dist
	for i := 0; i < splitReps && lr.next+liveEvery <= len(lr.churn); i++ {
		t := time.Now()
		for _, ev := range lr.churn[lr.next : lr.next+liveEvery] {
			if err := lr.ap.Apply(ev); err != nil {
				return err
			}
		}
		lr.next += liveEvery
		apply = append(apply, float64(time.Since(t).Nanoseconds())/liveEvery)
		t = time.Now()
		lr.ap.Resolve()
		resolve = append(resolve, msSince(t))
		t = time.Now()
		lr.ap.Snapshot()
		capture = append(capture, msSince(t))
	}
	rec := lr.e.rec
	rec.set("live.apply_ns_per_event", "ns", apply.median(), len(apply)*liveEvery)
	rec.set("live.resolve_ms_p50", "ms", resolve.median(), len(resolve))
	rec.set("live.resolve_ms_max", "ms", resolve.max(), len(resolve))
	rec.set("live.capture_ms_p50", "ms", capture.median(), len(capture))
	return nil
}

// finish runs the end-of-run checks: the final incremental generation
// must equal a full recompute byte for byte, the RIB must agree with
// the datasets' reference counts, and /metrics must agree with the
// harness about requests and swaps.
func (lr *liveRun) finish() error {
	e, ap := lr.e, lr.ap
	exp, err := lr.s.scrape(e)
	if err != nil {
		return err
	}
	swaps, _ := exp.Value("hybridrel_live_snapshot_swaps_total")
	e.chk.check(int(swaps) == lr.swaps, "/metrics counts %v swaps, live.Runner made %d", swaps, lr.swaps)
	e.rec.set("live.swaps", "count", float64(lr.swaps), lr.swaps)
	if p50, ok := histogramMedian(exp, "hybridrel_live_swap_duration_ns", ""); ok {
		e.rec.set("obs.swap_p50_ms", "ms", p50/1e6, int(swaps))
		e.logf("/metrics: %v swaps; swap p50 %.1f ms from the histogram", swaps, p50/1e6)
	}
	parseErrs, _ := exp.Value("hybridrel_live_parse_errors_total")
	e.chk.check(parseErrs == 0, "%v feed events failed to parse", parseErrs)
	e.rec.set("live.parse_errors", "count", parseErrs, 1)
	e.rec.set("feed.lag_ms_max", "ms", float64(lr.lagMax.Nanoseconds())/1e6, 1)

	got, err := snapshot.Bytes(lr.last)
	if err != nil {
		return err
	}
	ap.Recompute()
	want, err := snapshot.Bytes(ap.Snapshot())
	if err != nil {
		return err
	}
	e.chk.check(bytes.Equal(got, want), "final incremental generation (%d bytes) differs from a full recompute (%d bytes)", len(got), len(want))
	refs := ap.D4.ActiveRefs() + ap.D6.ActiveRefs()
	e.chk.check(ap.RIBSize() == refs, "RIB holds %d routes, the datasets %d active references", ap.RIBSize(), refs)

	e.rec.set("dataset.links4", "count", float64(ap.D4.NumLinks()), 1)
	e.rec.set("dataset.links6", "count", float64(ap.D6.NumLinks()), 1)
	e.rec.set("dataset.unique_paths6", "count", float64(ap.D6.NumUniquePaths()), 1)
	e.rec.set("core.hybrid_links", "count", float64(len(lr.last.Hybrids)), 1)
	e.rec.set("snapshot.links4", "count", float64(len(lr.last.Links4)), 1)
	return nil
}
