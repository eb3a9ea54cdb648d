package hybridrel

// Tests for the v2 pipeline API: a golden end-to-end test pinning the
// small-world headline numbers, byte-identity between the seed-style
// sequential path, the v1 compatibility wrappers, and the concurrent
// pipeline, determinism under every parallelism setting, and context
// cancellation mid-ingest.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"iter"
	"reflect"
	"slices"
	"testing"
	"time"

	"hybridrel/internal/asrel"
	"hybridrel/internal/community"
	"hybridrel/internal/core"
	"hybridrel/internal/dataset"
	"hybridrel/internal/golden"
	"hybridrel/internal/rpsl"
)

// seedSequential reproduces the seed's strictly sequential ingest path
// (one archive after another, then the IRR) feeding core.Analyze — the
// reference implementation every pipeline configuration must match.
func seedSequential(t testing.TB, w *World) *Analysis {
	t.Helper()
	d4 := dataset.New(asrel.IPv4)
	for _, a := range w.Archives4 {
		if err := d4.AddMRT(bytes.NewReader(a)); err != nil {
			t.Fatal(err)
		}
	}
	d6 := dataset.New(asrel.IPv6)
	for _, a := range w.Archives6 {
		if err := d6.AddMRT(bytes.NewReader(a)); err != nil {
			t.Fatal(err)
		}
	}
	objs, _, err := rpsl.Parse(bytes.NewReader(w.IRR))
	if err != nil {
		t.Fatal(err)
	}
	return core.Analyze(d4, d6, community.FromIRR(objs), core.DefaultOptions())
}

// clonePaths copies every path a walk yields, so two walks can be
// compared after both have ended.
func clonePaths(paths iter.Seq[*dataset.PathObs]) []dataset.PathObs {
	var out []dataset.PathObs
	for p := range paths {
		q := *p
		q.Path = slices.Clone(p.Path)
		q.Communities = slices.Clone(p.Communities)
		out = append(out, q)
	}
	return out
}

// assertIdentical compares every derived product of two analyses.
func assertIdentical(t *testing.T, label string, want, got *Analysis) {
	t.Helper()
	if !reflect.DeepEqual(clonePaths(want.D6.Paths()), clonePaths(got.D6.Paths())) {
		t.Errorf("%s: IPv6 path sets differ", label)
	}
	if !reflect.DeepEqual(want.D4.Links(), got.D4.Links()) {
		t.Errorf("%s: IPv4 link sets differ", label)
	}
	wSets, wLoops := want.D6.Dropped()
	gSets, gLoops := got.D6.Dropped()
	if want.D6.NumObservations() != got.D6.NumObservations() || wSets != gSets || wLoops != gLoops {
		t.Errorf("%s: ingest tallies differ", label)
	}
	if want.Coverage() != got.Coverage() {
		t.Errorf("%s: coverage differs:\nwant %+v\ngot  %+v", label, want.Coverage(), got.Coverage())
	}
	if !reflect.DeepEqual(want.Hybrids(), got.Hybrids()) {
		t.Errorf("%s: hybrid lists differ", label)
	}
	if !reflect.DeepEqual(want.HybridCensus(), got.HybridCensus()) {
		t.Errorf("%s: censuses differ", label)
	}
	if want.HybridVisibility() != got.HybridVisibility() {
		t.Errorf("%s: visibility differs", label)
	}
	if want.ValleyReport() != got.ValleyReport() {
		t.Errorf("%s: valley reports differ", label)
	}
}

// TestGoldenSmallWorld pins the small-world headline numbers and proves
// the v1 compatibility wrapper and the v2 pipeline both reproduce the
// seed's sequential results exactly.
func TestGoldenSmallWorld(t *testing.T) {
	world, err := Synthesize(SmallWorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	seed := seedSequential(t, world)

	// The golden headline numbers live in internal/golden,
	// shared with the snapshot and serve golden tests. They pin the
	// whole methodology: any change to ingest, inference, or the join
	// shows up here.
	golden.AssertSmall(t, seed)

	// The v1 wrapper and the v2 pipeline must be indistinguishable from
	// the sequential seed path.
	compat, err := Run(world.Inputs(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "v1 Run wrapper", seed, compat)

	v2, err := RunPipeline(context.Background(), world.Sources(), WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "v2 pipeline", seed, v2)
}

// TestPipelineDeterminismUnderParallelism runs the pipeline at several
// worker counts over a four-collector world (eight archives) and
// requires identical output every time.
func TestPipelineDeterminismUnderParallelism(t *testing.T) {
	world, err := SynthesizeCollectors(SmallWorldConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(world.Archives4) != 4 || len(world.Archives6) != 4 {
		t.Fatalf("want 4 archives per plane, got %d/%d", len(world.Archives4), len(world.Archives6))
	}
	baseline := seedSequential(t, world)
	for _, n := range []int{1, 2, 3, 8} {
		got, err := RunPipeline(context.Background(), world.Sources(), WithParallelism(n))
		if err != nil {
			t.Fatalf("parallelism %d: %v", n, err)
		}
		assertIdentical(t, "parallelism "+string(rune('0'+n)), baseline, got)
	}
}

// cancelSource serves a real archive but cancels the supplied context
// after the first read, so ingestion is interrupted mid-archive.
type cancelSource struct {
	name   string
	data   []byte
	cancel context.CancelFunc
}

func (s *cancelSource) Name() string { return s.name }

func (s *cancelSource) Open(ctx context.Context) (io.ReadCloser, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &cancelReader{r: bytes.NewReader(s.data), cancel: s.cancel}, nil
}

type cancelReader struct {
	r      *bytes.Reader
	cancel context.CancelFunc
}

func (c *cancelReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	return n, err
}

func (c *cancelReader) Close() error { return nil }

// TestPipelineCancellationMidIngest cancels the context while an
// archive is being decoded and expects a prompt context.Canceled.
func TestPipelineCancellationMidIngest(t *testing.T) {
	world, err := Synthesize(SmallWorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := world.Sources()
	// The first v6 source pulls the plug after its first read; every
	// worker then observes the canceled context.
	in.MRT6[0] = &cancelSource{name: "ipv6/poisoned", data: world.Archives6[0], cancel: cancel}

	done := make(chan error, 1)
	go func() {
		_, err := RunPipeline(ctx, in, WithParallelism(1))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline did not stop after cancellation")
	}

	// A context canceled before the run starts never opens a source.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := RunPipeline(pre, world.Sources()); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled err = %v, want context.Canceled", err)
	}
}

// TestAnalysisMemoization verifies the derived products are cached:
// repeated calls return equal values, and mutating a returned slice or
// map cannot poison the cache.
func TestAnalysisMemoization(t *testing.T) {
	world, err := Synthesize(SmallWorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunPipeline(context.Background(), world.Sources())
	if err != nil {
		t.Fatal(err)
	}
	h1 := a.Hybrids()
	h1[0].Visibility = -1
	h2 := a.Hybrids()
	if h2[0].Visibility == -1 {
		t.Error("mutating the returned hybrid slice poisoned the cache")
	}
	c1 := a.HybridCensus()
	c1.ByClass[HybridPeerTransit] = -1
	if a.HybridCensus().ByClass[HybridPeerTransit] == -1 {
		t.Error("mutating the returned census map poisoned the cache")
	}
	if a.Coverage() != a.Coverage() || a.HybridVisibility() != a.HybridVisibility() {
		t.Error("value accessors not stable")
	}
}
