package main

// serve-100k and reload-100k: the serving side at Internet scale. A
// scale.Tier100k world is written once as a v2 file; serving maps it
// with snapshot.Map and installs it with serve.Load.

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"hybridrel/internal/obs"
	"hybridrel/internal/scale"
	"hybridrel/internal/serve"
	"hybridrel/internal/snapshot"
)

func runServe(ctx context.Context, e *env) error  { return runServing(ctx, e, false) }
func runReload(ctx context.Context, e *env) error { return runServing(ctx, e, true) }

// serving holds one serving workload's state.
type serving struct {
	e    *env
	path string // the v2 file
	keys *keySample
	s    *server
	// phases counts measured phases, so each phase's readers draw from
	// their own seeded streams.
	phases int
}

func runServing(ctx context.Context, e *env, reload bool) error {
	start := time.Now()
	cfg := scale.Tier100k()
	if e.tiny {
		cfg = scale.Tier600()
	}
	cfg.Seed = e.seed
	world, err := scale.Build(cfg)
	if err != nil {
		return err
	}
	dir, cleanup, err := e.scratchDir()
	if err != nil {
		return err
	}
	defer cleanup()
	sv := &serving{e: e, path: filepath.Join(dir, "world.snap2")}
	if err := snapshot.WriteFileV2(sv.path, world); err != nil {
		return err
	}
	sv.keys = sampleKeys(world, e.seed, 1<<16)
	e.logf("inputs: %d ASes, %d IPv4 links, %d IPv6 links, %d hybrids", cfg.NumASes, len(world.Links4), len(world.Links6), len(world.Hybrids))
	e.rec.set("snapshot.links4", "count", float64(len(world.Links4)), 1)
	e.rec.set("core.hybrid_links", "count", float64(len(world.Hybrids)), 1)
	world = nil
	if err := e.inputsReady(start); err != nil {
		return err
	}

	var maps, loads dist
	s, err := setUp(e, func() (*server, func(), error) {
		t := time.Now()
		m, err := snapshot.Map(sv.path)
		if err != nil {
			return nil, nil, err
		}
		maps = append(maps, msSince(t))
		srv := serve.New(nil, productionOptions(obs.NewRegistry(), 0)...)
		a0 := allocatedBytes()
		t = time.Now()
		srv.Load(m)
		loads = append(loads, msSince(t))
		e.rec.set("serve.load_alloc_mb", "MB", float64(allocatedBytes()-a0)/(1<<20), 1)
		s, err := listen(ctx, srv, e.traced)
		if err != nil {
			m.Close()
			return nil, nil, err
		}
		// A torn-down server is never read again, so its mapping can go
		// without waiting for the refcount that only a next Load drops.
		return s, func() { s.stop(); m.Close() }, nil
	})
	if err != nil {
		return err
	}
	defer s.stop()
	sv.s = s
	if !reload {
		// The readers are the only load; the probe connection stays
		// closed until the final scrape.
		s.closeProbe()
		e.rec.set("snapshot.map_ms", "ms", maps.median(), len(maps))
		e.rec.set("serve.load_ms_p50", "ms", loads.median(), len(loads))
		e.rec.set("serve.load_ms_max", "ms", loads.max(), len(loads))
		if err := e.measure(ctx, "request", sv.servePhase); err != nil {
			return err
		}
	} else if err := e.measure(ctx, "reload", sv.reloadPhase); err != nil {
		return err
	}
	if _, err := s.scrape(e); err != nil {
		return err
	}
	st, err := fileMB(sv.path)
	if err != nil {
		return err
	}
	e.rec.set("snapshot.file_mb", "MB", st, 1)
	return nil
}

// readers returns n closed-loop readers with their own seeded streams.
func (sv *serving) readers(n int) []*reader {
	sv.phases++
	rs := make([]*reader, n)
	for i := range rs {
		rs[i] = &reader{
			s: sv.s, keys: sv.keys, mix: true, check: true, tracer: sv.e.tracer,
			rng: rand.New(rand.NewSource(sv.e.seed*1000 + int64(sv.phases*10+i))),
		}
	}
	if sv.s.handler != nil {
		sv.s.handler.tracer.Store(sv.e.tracer)
	}
	return rs
}

// servePhase runs two closed-loop readers for d. The operation is one
// request; its latency is the round trip.
func (sv *serving) servePhase(ctx context.Context, d time.Duration) (phase, error) {
	stop := make(chan struct{})
	t := time.AfterFunc(d, func() { close(stop) })
	defer t.Stop()
	st, err := runReaders(ctx, sv.e, sv.readers(2), stop)
	if err != nil {
		return phase{}, err
	}
	recordReads(sv.e, st)
	ops := make(dist, len(st.rttUs))
	for i, us := range st.rttUs {
		ops[i] = us / 1e3
	}
	return phase{ops: ops, wall: time.Duration(st.wallSec * float64(time.Second))}, nil
}

// reloadPhase reloads the file back to back for d while one closed-loop
// reader runs the serving mix. The operation is one reload: Map, Load,
// and the first 200 on /v1/rel from the new generation.
func (sv *serving) reloadPhase(ctx context.Context, d time.Duration) (phase, error) {
	e := sv.e
	stop := make(chan struct{})
	done := make(chan struct{})
	var st readStats
	var readErr error
	go func() {
		defer close(done)
		st, readErr = runReaders(ctx, e, sv.readers(1), stop)
	}()
	var p phase
	start := time.Now()
	var err error
	for len(p.ops) == 0 || time.Since(start) < d {
		if err = ctx.Err(); err != nil {
			break
		}
		var ms float64
		if ms, err = sv.reloadOnce(); err != nil {
			break
		}
		p.ops = append(p.ops, ms)
	}
	p.wall = time.Since(start)
	close(stop)
	<-done
	if err != nil {
		return p, err
	}
	if readErr != nil {
		return p, readErr
	}
	recordReads(e, st)
	if e.tracer != nil {
		spans := e.tracer.Spans()
		e.recordSpanDist("serve.load")
		maps := dist(durationsMs(spans, "snapshot.map"))
		e.rec.set("snapshot.map_ms", "ms", maps.median(), len(maps))
		first := dist(durationsMs(spans, "serve.first_200"))
		e.rec.set("serve.first_200_ms", "ms", first.median(), len(first))
	}
	return p, nil
}

// reloadOnce maps the file, installs it and waits for the first 200 on
// /v1/rel, whose body it checks. It returns the reload's time in
// milliseconds.
func (sv *serving) reloadOnce() (float64, error) {
	e, s := sv.e, sv.s
	q := &sv.keys.rel[int(s.srv.Generation())%len(sv.keys.rel)]
	start := time.Now()
	root := e.tracer.Open("reload", 0, 0, start)
	sp := root.ChildAt("snapshot.map", start)
	m, err := snapshot.Map(sv.path)
	sp.End()
	if err != nil {
		return 0, err
	}
	sp = root.Child("serve.load")
	s.srv.Load(m)
	sp.End()
	sp = root.Child("serve.first_200")
	e.chk.add(1)
	var body bytes.Buffer
	status, err := s.probeGet(q.path, &body)
	sp.End()
	root.End()
	ms := msSince(start)
	switch {
	case err != nil:
		e.chk.fail("reload probe %s: %v", q.path, err)
	case status != http.StatusOK:
		e.chk.fail("reload probe %s: status %d", q.path, status)
	default:
		checkRel(e, body.Bytes(), q)
	}
	return ms, nil
}

func fileMB(path string) (float64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return float64(st.Size()) / (1 << 20), nil
}
