// Package benchkit is the self-contained benchmark suite behind
// `experiments -bench`: it builds one scenario world (tunnel-heavy by
// default — the regime with the largest per-plane link sets relative
// to its dual-stack join), runs every hot-path benchmark against it,
// and reports ns/op with per-op allocation counts as machine-readable
// JSON (the BENCH_*.json trajectory CI uploads on every change).
//
// Paired rows measured in the same run on the same world — a live
// resolve against a full recompute, an instrumented server against a
// bare one, an mmap load against a full decode or against a smaller
// tier — are reported as comparisons with stated targets; the absolute
// rows are diffed against a committed baseline report (CompareReports).
//
// The harness is deliberately not `go test -bench`: cmd/experiments
// must run it from a plain binary with a controllable per-benchmark
// time budget (-benchtime=1x for the CI smoke job), so it carries its
// own measurement loop: warm-up, then doubling batches until the time
// budget is spent, with allocations read from runtime.MemStats deltas.
package benchkit

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgpsim"
	"hybridrel/internal/core"
	"hybridrel/internal/dataset"
	"hybridrel/internal/gen"
	"hybridrel/internal/live"
	"hybridrel/internal/mrt"
	"hybridrel/internal/obs"
	"hybridrel/internal/pipeline"
	"hybridrel/internal/scale"
	"hybridrel/internal/scenario"
	"hybridrel/internal/serve"
	"hybridrel/internal/snapshot"
	"hybridrel/internal/testutil"
)

// LiveTargetSpeedup is the live ingester's incremental re-inference
// gate: with a small flap cycle keeping at most ~1% of a plane's links
// dirty, the dirty-set resolve must be at least 5× faster than a full
// recompute of the same state. The allocation gate is permissive (the
// win is wall-clock; both paths allocate little per op).
const LiveTargetSpeedup = 5.0

// ObsMaxSlowdown bounds the observability middleware's wall-clock
// overhead on the hot read path: the fully instrumented server
// (per-endpoint metrics, load shedder, request timeout) must serve
// /v1/rel at no worse than 1.05× the bare server's ns/op. The
// comparison expresses this as a target speedup of 1/ObsMaxSlowdown.
// ObsMaxAllocRatio is the matching allocation bound: the timeout
// plumbing (deadline context, timer, guarded writer) costs a handful
// of small allocations per request on top of the request machinery
// itself.
const (
	ObsMaxSlowdown   = 1.05
	ObsMaxAllocRatio = 1.5
)

// MmapTierMaxRatio bounds how much slower an mmap load of the 10k-tier
// snapshot may be than the 600-AS one: mapping is O(1) in file size
// (directory parse plus pointer arithmetic — the kernel pages data in
// on demand), so load time must be independent of tier within noise.
// The v1 decode pair in the same report shows the contrast: its cost
// scales with the link count.
const MmapTierMaxRatio = 1.2

// MmapLoadTargetSpeedup is the same-tier gate: at the 10k tier the
// mmap load must beat the full v1 decode of the identical world by at
// least this factor.
const MmapLoadTargetSpeedup = 5.0

// Options configures a suite run.
type Options struct {
	// Scenario names the world regime (default "tunnel-heavy").
	Scenario string
	// Tier selects the world size (scenario.TierShort / TierFull).
	Tier scenario.Tier
	// Benchtime is the per-benchmark time budget (default 1s).
	Benchtime time.Duration
	// Once runs every benchmark exactly once (-benchtime=1x): the CI
	// smoke mode that proves the suite builds and runs.
	Once bool
}

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Comparison relates a benchmark to its baseline from the same run.
type Comparison struct {
	Name             string  `json:"name"`
	Baseline         string  `json:"baseline"`
	Interned         string  `json:"interned"`
	Speedup          float64 `json:"speedup"`
	AllocRatio       float64 `json:"alloc_ratio"`
	TargetSpeedup    float64 `json:"target_speedup"`
	TargetAllocRatio float64 `json:"target_alloc_ratio"`
	MeetsTargets     bool    `json:"meets_targets"`
}

// Report is the full suite output, serialized to BENCH_*.json.
type Report struct {
	Scenario    string       `json:"scenario"`
	Tier        string       `json:"tier"`
	Benchtime   string       `json:"benchtime"`
	GoVersion   string       `json:"go_version"`
	GOOS        string       `json:"goos"`
	GOARCH      string       `json:"goarch"`
	NumCPU      int          `json:"num_cpu"`
	World       WorldInfo    `json:"world"`
	Results     []Result     `json:"results"`
	Comparisons []Comparison `json:"comparisons"`
}

// WorldInfo records the benchmarked world's scale, so trajectory
// comparisons across PRs know what they are comparing.
type WorldInfo struct {
	ASes      int `json:"ases"`
	Links4    int `json:"links4"`
	Links6    int `json:"links6"`
	DualStack int `json:"dual_stack"`
	Hybrids   int `json:"hybrids"`
}

// MeetsTargets reports whether every comparison met its targets.
func (r *Report) MeetsTargets() bool {
	for _, c := range r.Comparisons {
		if !c.MeetsTargets {
			return false
		}
	}
	return true
}

// measure runs fn in doubling batches until the time budget is spent
// (or exactly once in Once mode), reading allocation counters around
// each batch.
func measure(name string, opt Options, fn func()) Result {
	budget := opt.Benchtime
	if budget <= 0 {
		budget = time.Second
	}
	runBatch := func(n int) (time.Duration, uint64, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		return elapsed, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	var (
		iters   int
		elapsed time.Duration
		mallocs uint64
		alloced uint64
	)
	if opt.Once {
		elapsed, mallocs, alloced = runBatch(1)
		iters = 1
	} else {
		fn() // warm-up: populate caches, page in the world
		batch := 1
		for elapsed < budget {
			e, m, b := runBatch(batch)
			elapsed += e
			mallocs += m
			alloced += b
			iters += batch
			if batch < 1<<20 {
				batch *= 2
			}
		}
	}
	return Result{
		Name:        name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(mallocs) / float64(iters),
		BytesPerOp:  float64(alloced) / float64(iters),
	}
}

// Run executes the whole suite.
func Run(ctx context.Context, opt Options) (*Report, error) {
	if opt.Scenario == "" {
		opt.Scenario = "tunnel-heavy"
	}
	sc, err := scenario.Find(opt.Scenario)
	if err != nil {
		return nil, err
	}
	cfg := sc.Config(opt.Tier)
	in, err := gen.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("benchkit: %w", err)
	}
	arch, err := testutil.Collect(in, sc.Collectors)
	if err != nil {
		return nil, fmt.Errorf("benchkit: %w", err)
	}
	var src pipeline.Sources
	for i, b := range arch.MRT4 {
		src.MRT4 = append(src.MRT4, pipeline.Bytes(fmt.Sprintf("ipv4/collector%02d", i), b))
	}
	for i, b := range arch.MRT6 {
		src.MRT6 = append(src.MRT6, pipeline.Bytes(fmt.Sprintf("ipv6/collector%02d", i), b))
	}
	src.IRR = pipeline.Bytes("irr", arch.IRR)

	a, err := core.RunPipeline(ctx, src)
	if err != nil {
		return nil, fmt.Errorf("benchkit: %w", err)
	}
	// Force every lazily-built structure once, so the benchmarks below
	// measure steady-state queries, not first-touch construction.
	snap := snapshot.Capture(a)

	report := &Report{
		Scenario:  opt.Scenario,
		Tier:      opt.Tier.String(),
		Benchtime: benchtimeLabel(opt),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		World: WorldInfo{
			ASes:      len(in.Order),
			Links4:    a.D4.NumLinks(),
			Links6:    a.D6.NumLinks(),
			DualStack: a.Coverage().DualStack,
			Hybrids:   len(a.Hybrids()),
		},
	}

	add := func(name string, fn func()) {
		report.Results = append(report.Results, measure(name, opt, fn))
	}

	// Ingest: full archive decode into the flat-accumulating datasets.
	add("ingest/sequential", func() {
		d4 := dataset.New(asrel.IPv4)
		for _, b := range arch.MRT4 {
			if err := d4.AddMRT(bytes.NewReader(b)); err != nil {
				panic(err)
			}
		}
		d6 := dataset.New(asrel.IPv6)
		for _, b := range arch.MRT6 {
			if err := d6.AddMRT(bytes.NewReader(b)); err != nil {
				panic(err)
			}
		}
		if d6.NumLinks() == 0 {
			panic("empty ingest")
		}
	})

	// Pure visitor decode of every archive: the reader-only floor under
	// ingest/sequential. allocs_per_op here is the O(1)-per-archive
	// budget the zero-allocation decoder is held to.
	allArchives := append(append([][]byte{}, arch.MRT4...), arch.MRT6...)
	visitReader := mrt.NewReader(bytes.NewReader(nil))
	var visitBuf bytes.Reader
	add("ingest/visit", func() {
		entries := 0
		for _, b := range allArchives {
			visitBuf.Reset(b)
			visitReader.Reset(&visitBuf)
			if err := visitReader.Visit(func(rec *mrt.Record) error {
				if rib, ok := rec.Message.(*mrt.RIB); ok {
					entries += len(rib.Entries)
				}
				return nil
			}); err != nil {
				panic(err)
			}
		}
		if entries == 0 {
			panic("empty visit")
		}
	})

	// Concurrent ingest through the pipeline's worker pool: per-archive
	// shards (each with its own interner and arena) frozen in their
	// workers, then two-pointer merged in archive order.
	srcNoIRR := src
	srcNoIRR.IRR = nil
	par := pipeline.New(pipeline.WithParallelism(runtime.NumCPU()))
	add("ingest/parallel", func() {
		res, err := par.Ingest(ctx, srcNoIRR)
		if err != nil {
			panic(err)
		}
		if res.D6.NumLinks() == 0 {
			panic("empty ingest")
		}
	})

	// Dedup: the plane's observation stream, duplicates included,
	// pushed through the interned arena-hash path dedup.
	obsPaths := DedupWorkload(a.D6.Paths())
	add("dedup/interned", func() {
		d := dataset.New(asrel.IPv6)
		for _, p := range obsPaths {
			if err := d.AddPath(p, netip.Prefix{}, nil, 0, false); err != nil {
				panic(err)
			}
		}
		if d.NumUniquePaths() == 0 {
			panic("empty dedup")
		}
	})

	// Dual-stack join: the two-pointer sweep over the frozen indexes.
	add("join/flat", func() {
		if dataset.DualStack(a.D4, a.D6) == nil {
			panic("empty join")
		}
	})

	// Inference derived products: join + hybrid detection + coverage,
	// as flat sweeps over the relationship tables.
	add("inference/flat", func() {
		_, hyb, cov := a.ComputeProducts()
		if len(hyb) == 0 || cov.DualStack == 0 {
			panic("empty products")
		}
	})

	// Snapshot codec over the interned tables (uncompressed: the codec
	// itself, not gzip).
	var encoded bytes.Buffer
	if err := snapshot.Encode(&encoded, snap, false); err != nil {
		return nil, fmt.Errorf("benchkit: %w", err)
	}
	add("snapshot/encode", func() {
		if err := snapshot.Encode(io.Discard, snap, false); err != nil {
			panic(err)
		}
	})
	add("snapshot/decode", func() {
		if _, err := snapshot.Read(bytes.NewReader(encoded.Bytes())); err != nil {
			panic(err)
		}
	})

	// Serving: the indexed per-AS view over the CSR-sliced state.
	srv := serve.New(snap)
	asns := make([]asrel.ASN, 0, 64)
	a.D6.EachLink(func(k asrel.LinkKey, _ int) {
		if len(asns) < 64 {
			asns = append(asns, k.Lo)
		}
	})
	var asCursor int
	add("serve/as", func() {
		asn := asns[asCursor%len(asns)]
		asCursor++
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", fmt.Sprintf("/v1/as/%d", asn), nil)
		srv.ServeHTTP(rec, req)
		if rec.Code != 200 {
			panic(fmt.Sprintf("GET /v1/as/%d: %d", asn, rec.Code))
		}
	})

	// Serving observability overhead: the same per-link lookup through
	// the bare server vs one carrying the full production middleware
	// stack (per-endpoint metrics, load shedder, request timeout). The
	// access log is off — it is I/O-bound and belongs on a buffered
	// writer, not in a hot-path gate. The pair bounds the instrumented
	// path at ObsMaxSlowdown of the bare one.
	links := make([]asrel.LinkKey, 0, 64)
	a.D6.EachLink(func(k asrel.LinkKey, _ int) {
		if len(links) < 64 {
			links = append(links, k)
		}
	})
	relURLs := make([]string, len(links))
	for i, k := range links {
		relURLs[i] = fmt.Sprintf("/v1/rel?a=%d&b=%d", k.Lo, k.Hi)
	}
	srvObs := serve.New(snap,
		serve.WithMetrics(obs.NewRegistry()),
		serve.WithMaxInflight(1<<20),
		serve.WithRequestTimeout(time.Minute))
	relBench := func(s *serve.Server) func() {
		var cursor int
		return func() {
			url := relURLs[cursor%len(relURLs)]
			cursor++
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
			if rec.Code != 200 {
				panic(fmt.Sprintf("GET %s: %d", url, rec.Code))
			}
		}
	}
	add("serve/rel", relBench(srv))
	add("serve/rel-instrumented", relBench(srvObs))

	// Live incremental re-inference: converge a streaming applier on the
	// same world, then flap a couple of v4 routes — withdraw and
	// re-announce, keeping roughly 1% of the plane's links dirty — and
	// bring the relationship tables back up to date. The pair measures
	// the dirty-set resolve against a forced full recompute of the
	// identical state.
	feed, err := bgpsim.GenerateFeed(in, bgpsim.FeedConfig{Seed: cfg.Seed ^ 0xF1A9})
	if err != nil {
		return nil, fmt.Errorf("benchkit: %w", err)
	}
	converge := func() *live.Applier {
		ap := live.NewApplier(live.Config{Dict: a.Dict, DirtyThreshold: 0.5})
		for _, ev := range feed.Events {
			if err := ap.Apply(live.Event{Vantage: ev.Vantage, Data: ev.Data}); err != nil {
				panic(err)
			}
		}
		ap.Resolve()
		return ap
	}
	var flaps []int
	for i := 0; i < feed.NumRoutes() && len(flaps) < 2; i++ {
		if feed.Announce(i).AF == asrel.IPv4 {
			flaps = append(flaps, i)
		}
	}
	flap := func(ap *live.Applier) {
		for _, i := range flaps {
			for _, ev := range []bgpsim.FeedEvent{feed.Withdraw(i), feed.Announce(i)} {
				if err := ap.Apply(live.Event{Vantage: ev.Vantage, Data: ev.Data}); err != nil {
					panic(err)
				}
			}
		}
	}
	apInc := converge()
	add("infer/incremental", func() {
		flap(apInc)
		apInc.Resolve()
	})
	apFull := converge()
	add("infer/full", func() {
		flap(apFull)
		apFull.Recompute()
	})
	if inc, _ := apInc.Resolves(); inc == 0 {
		return nil, fmt.Errorf("benchkit: flap cycle never took the incremental path")
	}

	// Internet-scale section: the sharded world generator and the
	// snapshot load modes it feeds. Both load modes run at two tiers in
	// the same report, so the comparisons below can gate both axes —
	// mmap vs decode at the same size, and mmap across sizes.
	if err := scaleBenchmarks(opt, add); err != nil {
		return nil, err
	}

	report.Comparisons = compare(report.Results)
	// The mmap tier-independence bound is a hard gate, not an
	// informational target: a Map that started scaling with file size
	// (eager validation, copying) is a defect. Once mode measures a
	// single iteration and is too noisy to gate on.
	if !opt.Once {
		for _, c := range report.Comparisons {
			if c.Name == "mmap-tier" && !c.MeetsTargets {
				return report, fmt.Errorf(
					"benchkit: mmap load is not tier-independent: 10k tier costs %.2fx the 600-AS tier (bound %.2fx)",
					1/c.Speedup, MmapTierMaxRatio)
			}
		}
	}
	return report, nil
}

// scaleBenchmarks measures scale.Build at the 600 and 10k tiers and
// the two snapshot load modes (v1 streaming decode via Open, format-v2
// mmap via Map) over the same generated worlds, written to throwaway
// artifact files.
func scaleBenchmarks(opt Options, add func(string, func())) error {
	dir, err := os.MkdirTemp("", "benchkit-scale-*")
	if err != nil {
		return fmt.Errorf("benchkit: %w", err)
	}
	defer os.RemoveAll(dir)

	for _, tier := range []struct {
		name string
		cfg  scale.Config
	}{
		{"600", scale.Tier600()},
		{"10k", scale.Tier10k()},
	} {
		cfg := tier.cfg
		add("scale/gen-"+tier.name, func() {
			if _, err := scale.Build(cfg); err != nil {
				panic(err)
			}
		})
		world, err := scale.Build(cfg)
		if err != nil {
			return fmt.Errorf("benchkit: %w", err)
		}
		v1Path := filepath.Join(dir, "world-"+tier.name+".bin")
		f, err := os.Create(v1Path)
		if err != nil {
			return fmt.Errorf("benchkit: %w", err)
		}
		if err := snapshot.Encode(f, world, true); err != nil {
			f.Close()
			return fmt.Errorf("benchkit: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("benchkit: %w", err)
		}
		v2Path := filepath.Join(dir, "world-"+tier.name+".snap2")
		if err := snapshot.WriteFileV2(v2Path, world); err != nil {
			return fmt.Errorf("benchkit: %w", err)
		}
		add("snapshot/load-v1-"+tier.name, func() {
			s, err := snapshot.Open(v1Path)
			if err != nil {
				panic(err)
			}
			if len(s.Links4) == 0 {
				panic("empty decode")
			}
		})
		add("snapshot/load-mmap-"+tier.name, func() {
			s, err := snapshot.Map(v2Path)
			if err != nil {
				panic(err)
			}
			if len(s.Links4) == 0 {
				panic("empty mapping")
			}
			if err := s.Close(); err != nil {
				panic(err)
			}
		})
	}
	return nil
}

// DedupWorkload reconstructs an observation stream from a plane's
// unique paths: each replayed as many times as it was observed — the
// exact duplicate-heavy mix the ingest dedup sees. Exported so the
// root go-test benchmarks measure the same workload definition as the
// experiments CLI suite.
func DedupWorkload(paths []*dataset.PathObs) [][]asrel.ASN {
	var out [][]asrel.ASN
	for _, p := range paths {
		for i := 0; i < p.Obs; i++ {
			out = append(out, p.Path)
		}
	}
	return out
}

func benchtimeLabel(opt Options) string {
	if opt.Once {
		return "1x"
	}
	if opt.Benchtime <= 0 {
		return time.Second.String()
	}
	return opt.Benchtime.String()
}

// compare pairs each benchmark with its same-run baseline.
func compare(results []Result) []Comparison {
	byName := make(map[string]Result, len(results))
	for _, r := range results {
		byName[r.Name] = r
	}
	var out []Comparison
	for _, pair := range []struct {
		name, baseline, interned        string
		targetSpeedup, targetAllocRatio float64
	}{
		// Live re-inference: the full recompute is the baseline the
		// dirty-set path must beat 5× on a small flap cycle.
		{"live-infer", "infer/full", "infer/incremental", LiveTargetSpeedup, 1.0},
		// Observability overhead: the instrumented serve path may cost
		// at most ObsMaxSlowdown of the bare one ("speedup" ≥ 1/1.05).
		{"serve-obs", "serve/rel", "serve/rel-instrumented", 1 / ObsMaxSlowdown, ObsMaxAllocRatio},
		// Mmap load vs full v1 decode of the same 10k-tier world: the
		// map is structural validation only, so it must win big. The
		// alloc gate is loose — both paths allocate little in absolute
		// terms (the decode's allocations are the point being avoided).
		{"mmap-load", "snapshot/load-v1-10k", "snapshot/load-mmap-10k", MmapLoadTargetSpeedup, 1.0},
		// Mmap load across tiers: mapping the 10k-tier file may cost at
		// most MmapTierMaxRatio of mapping the 600-AS one — load time
		// independent of snapshot size. Allocations are a fixed set of
		// headers either way.
		{"mmap-tier", "snapshot/load-mmap-600", "snapshot/load-mmap-10k", 1 / MmapTierMaxRatio, 2.0},
	} {
		base, okB := byName[pair.baseline]
		flat, okF := byName[pair.interned]
		if !okB || !okF {
			continue
		}
		c := Comparison{
			Name:             pair.name,
			Baseline:         pair.baseline,
			Interned:         pair.interned,
			TargetSpeedup:    pair.targetSpeedup,
			TargetAllocRatio: pair.targetAllocRatio,
		}
		if flat.NsPerOp > 0 {
			c.Speedup = base.NsPerOp / flat.NsPerOp
		}
		if base.AllocsPerOp > 0 {
			c.AllocRatio = flat.AllocsPerOp / base.AllocsPerOp
		}
		c.MeetsTargets = c.Speedup >= c.TargetSpeedup && c.AllocRatio <= c.TargetAllocRatio
		out = append(out, c)
	}
	return out
}
