package main

// batch-10k: the paper's method as a batch job. Every rep turns the
// same MRT and IRR archives into a v2 snapshot file: pipeline.Run →
// core.FromResult → snapshot.Capture → snapshot.WriteFileV2.

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hybridrel/internal/core"
	"hybridrel/internal/dataset"
	"hybridrel/internal/gen"
	communityinfer "hybridrel/internal/infer/communities"
	"hybridrel/internal/infer/locpref"
	"hybridrel/internal/pipeline"
	"hybridrel/internal/scenario"
	"hybridrel/internal/snapshot"
	"hybridrel/internal/testutil"
)

func runBatch(ctx context.Context, e *env) error {
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
	arch, err := testutil.Collect(in, sc.Collectors)
	if err != nil {
		return err
	}
	dir, cleanup, err := e.scratchDir()
	if err != nil {
		return err
	}
	defer cleanup()
	b := &batch{e: e, path: filepath.Join(dir, "world.snap2")}
	b.src, b.inputMB = sources(arch)
	e.logf("inputs: %.1f MB of MRT and IRR from %d ASes", b.inputMB, cfg.NumASes)
	if err := e.inputsReady(start); err != nil {
		return err
	}

	// A batch job has no server to bring up; its set-up is a cold rep,
	// run after the heap went back to the OS — what a one-shot run of
	// the CLI pays.
	if _, err := setUp(e, func() (struct{}, func(), error) {
		_, err := b.rep(ctx)
		return struct{}{}, func() {}, err
	}); err != nil {
		return err
	}
	if err := e.measure(ctx, "batch.rep", b.phase); err != nil {
		return err
	}
	b.recordLayers()
	return nil
}

// sources wraps the archives as pipeline sources and returns their
// total size in MB.
func sources(arch *testutil.Archives) (pipeline.Sources, float64) {
	var src pipeline.Sources
	n := len(arch.IRR)
	for i, b := range arch.MRT4 {
		src.MRT4 = append(src.MRT4, pipeline.Bytes(fmt.Sprintf("ipv4/collector%02d", i), b))
		n += len(b)
	}
	for i, b := range arch.MRT6 {
		src.MRT6 = append(src.MRT6, pipeline.Bytes(fmt.Sprintf("ipv6/collector%02d", i), b))
		n += len(b)
	}
	src.IRR = pipeline.Bytes("irr", arch.IRR)
	return src, float64(n) / (1 << 20)
}

type batch struct {
	e       *env
	src     pipeline.Sources
	inputMB float64
	path    string // where every rep writes its v2 file

	// first is the first rep's output; every later rep must match it.
	first *batchOutput
	reps  int
}

// batchOutput is what a rep produced: the FNV-1a hash of its v2 file
// and the counts that must repeat exactly for a given seed.
type batchOutput struct {
	hash                         uint64
	fileMB                       float64
	links4, links6, uniquePaths6 int
	hybrids, snapLinks4          int
	records, dropped             int
}

func (b *batch) phase(ctx context.Context, d time.Duration) (phase, error) {
	var p phase
	start := time.Now()
	for len(p.ops) == 0 || time.Since(start) < d {
		// Each rep starts from a collected heap, as a batch job starts
		// from an empty one, so no rep inherits another's garbage.
		runtime.GC()
		ms, err := b.rep(ctx)
		if err != nil {
			return p, err
		}
		p.ops = append(p.ops, ms)
	}
	p.wall = time.Since(start)
	return p, nil
}

// rep runs archives → v2 file once, then checks its output against the
// first rep's. It returns the time the rep took, in milliseconds,
// without the check.
func (b *batch) rep(ctx context.Context) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	b.reps++
	start := time.Now()
	root := b.e.tracer.Root("batch.rep")
	var (
		res *pipeline.Result
		err error
	)
	if root == nil {
		res, err = pipeline.New().Run(ctx, b.src)
	} else {
		res, err = b.tracedPipeline(ctx, root)
	}
	if err != nil {
		return 0, err
	}
	sp := root.Child("core.assemble")
	a := core.FromResult(res)
	sp.End()
	if root != nil {
		// The memoized products one at a time, so that capture's span
		// holds only the capture.
		for _, step := range []struct {
			name string
			fn   func()
		}{
			{"core.hybrids", func() { a.Hybrids() }},
			{"core.coverage", func() { a.Coverage() }},
			{"core.visibility", func() { a.HybridVisibility() }},
			{"core.valley", func() { a.ValleyReport() }},
		} {
			sp := root.Child(step.name)
			step.fn()
			sp.End()
		}
	}
	sp = root.Child("snapshot.capture")
	s := snapshot.Capture(a)
	sp.End()
	sp = root.Child("snapshot.write_v2")
	err = snapshot.WriteFileV2(b.path, s)
	sp.End()
	root.End()
	ms := msSince(start)
	if err != nil {
		return 0, err
	}
	return ms, b.verify(a, s)
}

// tracedPipeline is pipeline.Run with a span around each layer call:
// ingest, then both planes' inference stacks concurrently, as Run
// schedules them.
func (b *batch) tracedPipeline(ctx context.Context, root *OpenSpan) (*pipeline.Result, error) {
	p := pipeline.New()
	sp := root.Child("pipeline.ingest")
	res, err := p.Ingest(ctx, b.src)
	sp.End()
	if err != nil {
		return nil, err
	}
	inf := root.Child("infer")
	var wg sync.WaitGroup
	plane := func(af string, d *dataset.Dataset, comm **communityinfer.Result, loc **locpref.Result) {
		defer wg.Done()
		sp := inf.Child("infer.communities" + af)
		paths := d.Paths()
		*comm = communityinfer.Infer(paths, res.Dict)
		sp.End()
		sp = inf.Child("infer.locpref" + af)
		*loc = locpref.Infer(paths, res.Dict, (*comm).Table, p.Config().LocPref)
		sp.End()
	}
	wg.Add(2)
	go plane("4", res.D4, &res.Comm4, &res.Loc4)
	go plane("6", res.D6, &res.Comm6, &res.Loc6)
	wg.Wait()
	inf.End()
	return res, nil
}

func (b *batch) verify(a *core.Analysis, s *snapshot.Snapshot) error {
	data, err := os.ReadFile(b.path)
	if err != nil {
		return err
	}
	h := fnv.New64a()
	h.Write(data)
	out := batchOutput{
		hash:         h.Sum64(),
		fileMB:       float64(len(data)) / (1 << 20),
		links4:       a.D4.NumLinks(),
		links6:       a.D6.NumLinks(),
		uniquePaths6: a.D6.NumUniquePaths(),
		hybrids:      len(s.Hybrids),
		snapLinks4:   len(s.Links4),
	}
	for _, d := range []*dataset.Dataset{a.D4, a.D6} {
		sets, loops := d.Dropped()
		out.records += d.NumObservations()
		out.dropped += sets + loops
	}
	if b.first == nil {
		b.first = &out
	}
	b.e.chk.check(out == *b.first, "rep %d: v2 file %016x or counts %+v differ from the first rep's %016x %+v",
		b.reps, out.hash, out, b.first.hash, *b.first)
	return nil
}

func (b *batch) recordLayers() {
	rec, f := b.e.rec, b.first
	rec.set("snapshot.file_mb", "MB", f.fileMB, 1)
	rec.set("pipeline.records", "count", float64(f.records), 1)
	rec.set("pipeline.dropped", "count", float64(f.dropped), 1)
	rec.set("dataset.links4", "count", float64(f.links4), 1)
	rec.set("dataset.links6", "count", float64(f.links6), 1)
	rec.set("dataset.unique_paths6", "count", float64(f.uniquePaths6), 1)
	rec.set("core.hybrid_links", "count", float64(f.hybrids), 1)
	rec.set("snapshot.links4", "count", float64(f.snapLinks4), 1)
	if b.e.tracer == nil {
		return
	}
	spans := b.e.tracer.Spans()
	for _, name := range []string{
		"pipeline.ingest",
		"infer.communities4", "infer.communities6", "infer.locpref4", "infer.locpref6",
		"core.assemble", "core.hybrids", "core.coverage", "core.visibility", "core.valley",
		"snapshot.capture", "snapshot.write_v2",
	} {
		d := dist(durationsMs(spans, name))
		rec.set(name+"_ms", "ms", d.median(), len(d))
	}
	ingest := dist(durationsMs(spans, "pipeline.ingest"))
	rec.set("pipeline.ingest_mb_per_s", "MB/s", b.inputMB/(ingest.median()/1e3), len(ingest))
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
