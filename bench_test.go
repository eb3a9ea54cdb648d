package hybridrel

// Benchmark harness: one benchmark per paper table/figure (T1–T4, F1,
// F2, X1) plus microbenchmarks of the substrates (MRT decode, BGP
// attribute codec, route propagation, valley-free BFS). Each experiment
// benchmark regenerates the corresponding result on the small-scale
// world; cmd/experiments prints the same rows at paper scale.

import (
	"bytes"
	"context"
	"io"
	"net/netip"
	"sync"
	"testing"
	"time"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
	"hybridrel/internal/bgpsim"
	"hybridrel/internal/core"
	"hybridrel/internal/ctree"
	"hybridrel/internal/dataset"
	"hybridrel/internal/infer"
	"hybridrel/internal/infer/gao"
	"hybridrel/internal/infer/rank"
	"hybridrel/internal/intern"
	"hybridrel/internal/mrt"
	"hybridrel/internal/pipeline"
	"hybridrel/internal/topology"
	"hybridrel/internal/valley"
)

var (
	benchOnce  sync.Once
	benchWorld *World
	benchA     *Analysis

	benchOnce4  sync.Once
	benchWorld4 *World
)

func benchSetup(b *testing.B) (*World, *Analysis) {
	b.Helper()
	benchOnce.Do(func() {
		w, err := Synthesize(SmallWorldConfig())
		if err != nil {
			panic(err)
		}
		a, err := Run(w.Inputs(), DefaultOptions())
		if err != nil {
			panic(err)
		}
		benchWorld, benchA = w, a
	})
	return benchWorld, benchA
}

// benchSetup4 builds a four-collector world (eight archives across the
// planes) for the sequential-vs-parallel ingest comparison.
func benchSetup4(b *testing.B) *World {
	b.Helper()
	benchOnce4.Do(func() {
		w, err := SynthesizeCollectors(SmallWorldConfig(), 4)
		if err != nil {
			panic(err)
		}
		benchWorld4 = w
	})
	return benchWorld4
}

// BenchmarkT1DatasetSummary regenerates the §3 ¶1 dataset summary.
func BenchmarkT1DatasetSummary(b *testing.B) {
	_, a := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := a.Coverage()
		if c.Paths6 == 0 {
			b.Fatal("empty coverage")
		}
	}
}

// BenchmarkT2HybridCensus regenerates the §3 ¶2 hybrid census.
func BenchmarkT2HybridCensus(b *testing.B) {
	_, a := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		census := a.HybridCensus()
		if census.Hybrid == 0 {
			b.Fatal("no hybrids")
		}
	}
}

// BenchmarkT3HybridVisibility regenerates the §3 ¶3 visibility scan.
func BenchmarkT3HybridVisibility(b *testing.B) {
	_, a := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := a.HybridVisibility()
		if v.PathsWithHybrid == 0 {
			b.Fatal("no hybrid paths")
		}
	}
}

// BenchmarkT4ValleyPaths regenerates the §3 ¶4 valley taxonomy,
// including the reachability-necessity test.
func BenchmarkT4ValleyPaths(b *testing.B) {
	_, a := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := a.ValleyReport()
		if st.Valley == 0 {
			b.Fatal("no valley paths")
		}
	}
}

// BenchmarkF1CustomerTreeToy regenerates the Figure-1 example.
func BenchmarkF1CustomerTreeToy(b *testing.B) {
	g := topology.New()
	for _, l := range [][2]asrel.ASN{{1, 2}, {1, 3}, {2, 4}, {2, 5}} {
		g.AddLink(l[0], l[1])
	}
	t := asrel.NewTable()
	t.Set(1, 2, asrel.P2C)
	t.Set(1, 3, asrel.P2C)
	t.Set(2, 4, asrel.P2C)
	t.Set(2, 5, asrel.P2C)
	p2c := intern.FromTable(t)
	t.Set(1, 2, asrel.P2P)
	p2p := intern.FromTable(t)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(ctree.Tree(g, p2c, 1)) != 4 || len(ctree.Tree(g, p2p, 1)) != 1 {
			b.Fatal("figure-1 trees wrong")
		}
	}
}

// BenchmarkF2CorrectionSweep regenerates the Figure-2 sweep (top 20
// corrections, exact tree metric).
func BenchmarkF2CorrectionSweep(b *testing.B) {
	_, a := benchSetup(b)
	rank6 := rank.Infer(a.D6.Paths(), rank.DefaultConfig())
	baseline := a.BaselineV6(a.Rel4, rank6.Table)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := a.Figure2(baseline, 20, 0)
		if len(pts) < 2 {
			b.Fatal("sweep too short")
		}
	}
}

// BenchmarkX1BaselineAccuracy scores the single-plane baselines against
// ground truth.
func BenchmarkX1BaselineAccuracy(b *testing.B) {
	w, a := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g6 := gao.Infer(a.D6.Paths(), gao.DefaultConfig())
		r6 := rank.Infer(a.D6.Paths(), rank.DefaultConfig())
		sg := infer.ScoreTable(g6.Table, w.Internet.Truth6, a.D6.Links())
		sr := infer.ScoreTable(r6.Table, w.Internet.Truth6, a.D6.Links())
		if sg.Classified == 0 || sr.Classified == 0 {
			b.Fatal("baselines classified nothing")
		}
	}
}

// BenchmarkPipelineEndToEnd runs the whole pipeline — world bytes in,
// analysis out — per iteration.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	w, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := core.Run(core.Inputs(w.Inputs()), core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if a.Coverage().Paths6 == 0 {
			b.Fatal("empty analysis")
		}
	}
}

// BenchmarkIngestSequential decodes every archive of the four-collector
// world one after another — the seed's ingest strategy.
func BenchmarkIngestSequential(b *testing.B) {
	w := benchSetup4(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d4 := dataset.New(asrel.IPv4)
		for _, a := range w.Archives4 {
			if err := d4.AddMRT(bytes.NewReader(a)); err != nil {
				b.Fatal(err)
			}
		}
		d6 := dataset.New(asrel.IPv6)
		for _, a := range w.Archives6 {
			if err := d6.AddMRT(bytes.NewReader(a)); err != nil {
				b.Fatal(err)
			}
		}
		if d6.NumUniquePaths() == 0 {
			b.Fatal("empty ingest")
		}
	}
}

// BenchmarkIngestParallel decodes the same archives through the v2
// pipeline's worker pool (per-archive shards merged in archive order,
// four workers). On multi-core hardware the decode work itself spreads
// across cores; on a single core the sharding overhead shows.
func BenchmarkIngestParallel(b *testing.B) {
	w := benchSetup4(b)
	in := w.Sources()
	in.IRR = nil // apples to apples with the sequential loop
	p := pipeline.New(pipeline.WithParallelism(4))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Ingest(ctx, in)
		if err != nil {
			b.Fatal(err)
		}
		if res.D6.NumUniquePaths() == 0 {
			b.Fatal("empty ingest")
		}
	}
}

// pacedSource throttles a source to a fixed chunk cadence, modeling the
// regime production ingest actually runs in: archives arriving from
// disk or the collector mirrors at bounded throughput. Sequential
// ingest serializes the stalls; the pipeline overlaps them.
type pacedSource struct {
	inner pipeline.Source
	chunk int
	delay time.Duration
}

func (s pacedSource) Name() string { return s.inner.Name() }

func (s pacedSource) Open(ctx context.Context) (io.ReadCloser, error) {
	rc, err := s.inner.Open(ctx)
	if err != nil {
		return nil, err
	}
	return &pacedReader{rc: rc, chunk: s.chunk, delay: s.delay}, nil
}

type pacedReader struct {
	rc    io.ReadCloser
	chunk int
	delay time.Duration
}

func (r *pacedReader) Read(p []byte) (int, error) {
	if len(p) > r.chunk {
		p = p[:r.chunk]
	}
	time.Sleep(r.delay)
	return r.rc.Read(p)
}

func (r *pacedReader) Close() error { return r.rc.Close() }

func pacedSources(in []pipeline.Source) []pipeline.Source {
	out := make([]pipeline.Source, len(in))
	for i, s := range in {
		out[i] = pacedSource{inner: s, chunk: 16 << 10, delay: time.Millisecond}
	}
	return out
}

// BenchmarkIngestSequentialPaced and BenchmarkIngestParallelPaced run
// the same comparison over throughput-limited (1 ms / 16 KiB) sources.
// This is where concurrent ingest pays off on any hardware: the
// pipeline overlaps the source stalls across archives.
func BenchmarkIngestSequentialPaced(b *testing.B) {
	benchIngestPaced(b, 1)
}

func BenchmarkIngestParallelPaced(b *testing.B) {
	benchIngestPaced(b, 8)
}

func benchIngestPaced(b *testing.B, parallelism int) {
	w := benchSetup4(b)
	in := w.Sources()
	in.MRT4 = pacedSources(in.MRT4)
	in.MRT6 = pacedSources(in.MRT6)
	in.IRR = nil
	p := pipeline.New(pipeline.WithParallelism(parallelism))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Ingest(ctx, in)
		if err != nil {
			b.Fatal(err)
		}
		if res.D6.NumUniquePaths() == 0 {
			b.Fatal("empty ingest")
		}
	}
}

// BenchmarkPipelineV2Sequential and BenchmarkPipelineV2Parallel compare
// the full pipeline — ingest, IRR, both inference stacks — at one
// worker versus all cores.
func BenchmarkPipelineV2Sequential(b *testing.B) {
	benchPipelineV2(b, 1)
}

func BenchmarkPipelineV2Parallel(b *testing.B) {
	benchPipelineV2(b, 0)
}

func benchPipelineV2(b *testing.B, parallelism int) {
	w := benchSetup4(b)
	in := w.Sources()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := RunPipeline(ctx, in, WithParallelism(parallelism))
		if err != nil {
			b.Fatal(err)
		}
		if a.Coverage().Paths6 == 0 {
			b.Fatal("empty analysis")
		}
	}
}

// BenchmarkAnalysisDerivedProducts measures the memoized accessor path:
// every derived product is computed once, then served from cache.
func BenchmarkAnalysisDerivedProducts(b *testing.B) {
	w := benchSetup4(b)
	a, err := RunPipeline(context.Background(), w.Sources())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.HybridCensus().Hybrid == 0 || a.HybridVisibility().Paths == 0 {
			b.Fatal("empty derived products")
		}
	}
}

// BenchmarkJoinFlat measures the dual-stack join: the two-pointer
// sweep over the frozen per-plane link indexes.
func BenchmarkJoinFlat(b *testing.B) {
	_, a := benchSetup(b)
	a.D4.Flat() // freeze outside the timed loop
	a.D6.Flat()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dataset.DualStack(a.D4, a.D6) == nil {
			b.Fatal("empty join")
		}
	}
}

// BenchmarkInferenceFlat measures the full derived-product
// recomputation — join, hybrid detection, coverage — as sweeps over the
// relationship tables.
func BenchmarkInferenceFlat(b *testing.B) {
	_, a := benchSetup(b)
	a.Hybrids() // freeze the flat tables and link indexes once
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hyb, _ := a.ComputeProducts(); len(hyb) == 0 {
			b.Fatal("no hybrids")
		}
	}
}

// BenchmarkWorldSynthesis generates and collects a small world per
// iteration (topology, policies, propagation, MRT serialization).
func BenchmarkWorldSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := Synthesize(SmallWorldConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(w.Archives6) == 0 {
			b.Fatal("no archives")
		}
	}
}

// BenchmarkMRTDecode streams a full v6 archive through the MRT reader.
func BenchmarkMRTDecode(b *testing.B) {
	w, _ := benchSetup(b)
	archive := w.Archives6[0]
	b.SetBytes(int64(len(archive)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := mrt.ReadAll(bytes.NewReader(archive))
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) == 0 {
			b.Fatal("empty archive")
		}
	}
}

// BenchmarkMRTVisit streams the same archive through the visitor path:
// one reused record, no per-record allocation — the decode floor the
// ingest stage sits on.
func BenchmarkMRTVisit(b *testing.B) {
	w, _ := benchSetup(b)
	archive := w.Archives6[0]
	r := mrt.NewReader(bytes.NewReader(archive))
	var br bytes.Reader
	b.SetBytes(int64(len(archive)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Reset(archive)
		r.Reset(&br)
		n := 0
		if err := r.Visit(func(rec *mrt.Record) error {
			n++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("empty archive")
		}
	}
}

// dedupWorkload reconstructs an observation stream from a plane's
// unique paths: each replayed as many times as it was observed — the
// duplicate-heavy mix the ingest dedup sees.
func dedupWorkload(paths []*dataset.PathObs) [][]asrel.ASN {
	var out [][]asrel.ASN
	for _, p := range paths {
		for i := 0; i < p.Obs; i++ {
			out = append(out, p.Path)
		}
	}
	return out
}

// BenchmarkDedupInterned measures the interned arena-hash path dedup
// the dataset runs on.
func BenchmarkDedupInterned(b *testing.B) {
	_, a := benchSetup(b)
	obs := dedupWorkload(a.D6.Paths())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := dataset.New(asrel.IPv6)
		for _, raw := range obs {
			if err := d.AddPath(raw, netip.Prefix{}, nil, 0, false); err != nil {
				b.Fatal(err)
			}
		}
		if d.NumUniquePaths() == 0 {
			b.Fatal("empty dedup")
		}
	}
}

// BenchmarkAttrsRoundTrip measures the BGP attribute codec hot path.
func BenchmarkAttrsRoundTrip(b *testing.B) {
	in := &bgp.Attrs{
		HasOrigin: true,
		ASPath:    bgp.Sequence(65001, 65002, 196613, 65004),
		Communities: []bgp.Community{
			bgp.MakeCommunity(65001, 100), bgp.MakeCommunity(65002, 2000),
		},
		HasLocalPref: true,
		LocalPref:    300,
	}
	opt := bgp.Options{ASN4: true}
	wire, err := in.Marshal(opt)
	if err != nil {
		b.Fatal(err)
	}
	var out bgp.Attrs
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bgp.DecodeAttrs(wire, opt, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPropagation measures one full route propagation over the v6
// plane of the small world.
func BenchmarkPropagation(b *testing.B) {
	w, _ := benchSetup(b)
	sim := bgpsim.New(w.Internet, asrel.IPv6)
	origin := w.Internet.Graph6.Nodes()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Propagate(origin)
		if err != nil {
			b.Fatal(err)
		}
		if res.ReachableCount() == 0 {
			b.Fatal("no routes")
		}
	}
}

// BenchmarkValleyFreeBFS measures the two-state product-graph BFS used
// by the necessity test and the Figure-2 metric.
func BenchmarkValleyFreeBFS(b *testing.B) {
	w, _ := benchSetup(b)
	g := w.Internet.Graph6
	t := intern.FromTable(w.Internet.Truth6)
	src := g.Nodes()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(g.ValleyFreeDist(t, src)) == 0 {
			b.Fatal("no reachability")
		}
	}
}

// BenchmarkValleyCheck measures per-path valley validation.
func BenchmarkValleyCheck(b *testing.B) {
	w, a := benchSetup(b)
	paths := a.D6.Paths()
	_ = w
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, p := range paths {
			if valley.Check(p.Path, a.Rel6) == valley.KindValley {
				n++
			}
		}
		if n == 0 {
			b.Fatal("no valley paths")
		}
	}
}
