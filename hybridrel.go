// Package hybridrel detects and assesses hybrid IPv4/IPv6 AS
// relationships, reproducing Giotsas & Zhou (SIGCOMM 2011).
//
// The library mines BGP Communities and Local Preference from MRT
// TABLE_DUMP_V2 archives (the RouteViews / RIPE RIS format) against an
// IRR community dictionary, recovers per-plane Type-of-Relationship
// tables, joins the planes into the dual-stack link set, and reports:
//
//   - hybrid links: dual-stack links whose IPv4 and IPv6 relationships
//     differ (the paper finds 13% of classified dual-stack links);
//   - hybrid visibility: the share of IPv6 paths crossing a hybrid link;
//   - valley paths: IPv6 paths violating the valley-free rule, split
//     into necessary (no valley-free alternative exists) and not;
//   - the Figure-2 correction sweep over the union of customer trees.
//
// Because the original August 2010 archives are not redistributable,
// the package also ships a deterministic synthetic Internet generator
// (Synthesize) that emits byte-faithful MRT archives and an RPSL IRR
// database with planted ground truth, so every experiment in the paper
// can be regenerated and scored.
//
// Quick start (v2 pipeline API):
//
//	world, _ := hybridrel.Synthesize(hybridrel.SmallWorldConfig())
//	analysis, _ := hybridrel.RunPipeline(context.Background(), world.Sources())
//	for _, h := range analysis.Hybrids() {
//		fmt.Println(h.Key, h.V4, h.V6, h.Class)
//	}
//
// RunPipeline ingests every archive concurrently (per-archive dataset
// shards merged deterministically), runs both planes' inference stacks
// in parallel, honors context cancellation mid-ingest, and returns a
// Analysis whose derived products are computed once and cached. Tune it
// with functional options: WithParallelism bounds the worker pool,
// WithLocPref adjusts the LocPrf calibration, WithProgress observes
// stage completion. The v1 Run(Inputs, Options) entry point remains as
// a thin compatibility wrapper with identical output.
package hybridrel

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"hybridrel/internal/asrel"
	"hybridrel/internal/collector"
	"hybridrel/internal/core"
	"hybridrel/internal/gen"
	"hybridrel/internal/infer/locpref"
	"hybridrel/internal/intern"
	"hybridrel/internal/obs"
	"hybridrel/internal/pipeline"
	"hybridrel/internal/serve"
	"hybridrel/internal/snapshot"
)

// Core vocabulary, re-exported for consumers.
type (
	// ASN is an autonomous system number.
	ASN = asrel.ASN
	// Rel is a directed Type-of-Relationship code.
	Rel = asrel.Rel
	// LinkKey canonically identifies an undirected AS link.
	LinkKey = asrel.LinkKey
	// RelTable is a frozen relationship table: the per-plane tables an
	// Analysis and a Snapshot expose (Rel4, Rel6).
	RelTable = intern.Table
	// HybridClass categorizes how a dual-stack link's relationships
	// differ between planes.
	HybridClass = asrel.HybridClass
)

// Relationship codes.
const (
	Unknown = asrel.Unknown
	P2C     = asrel.P2C
	C2P     = asrel.C2P
	P2P     = asrel.P2P
	S2S     = asrel.S2S
)

// Hybrid classes (H1, H2, H3 in the paper's order).
const (
	NotHybrid         = asrel.NotHybrid
	HybridPeerTransit = asrel.HybridPeerTransit
	HybridTransitPeer = asrel.HybridTransitPeer
	HybridReversed    = asrel.HybridReversed
)

// Analysis pipeline, re-exported from internal/core.
type (
	// Analysis is the assembled result of the paper's methodology.
	Analysis = core.Analysis
	// Options configures the pipeline.
	Options = core.Options
	// Inputs are raw MRT archives plus an IRR database.
	Inputs = core.Inputs
	// HybridLink is one detected hybrid relationship.
	HybridLink = core.HybridLink
	// Coverage is the dataset summary (paper §3 ¶1).
	Coverage = core.Coverage
	// HybridCensus is the hybrid population summary (§3 ¶2).
	HybridCensus = core.HybridCensus
	// Visibility is the hybrid path-visibility summary (§3 ¶3).
	Visibility = core.Visibility
)

// v2 pipeline vocabulary, re-exported from internal/pipeline.
type (
	// Source is one measurement input archive (bytes, reader, file).
	Source = pipeline.Source
	// Sources are the assembled pipeline inputs.
	Sources = pipeline.Sources
	// Option customizes a pipeline run, functional-options style.
	Option = pipeline.Option
	// Stage identifies a pipeline stage in progress events.
	Stage = pipeline.Stage
	// Event is one progress notification.
	Event = pipeline.Event
	// ProgressFunc observes pipeline progress.
	ProgressFunc = pipeline.ProgressFunc
	// LocPrefConfig tunes the LocPrf "Rosetta stone" calibration.
	LocPrefConfig = locpref.Config
)

// Pipeline stages, in execution order.
const (
	StageIngest  = pipeline.StageIngest
	StageIRR     = pipeline.StageIRR
	StageInfer   = pipeline.StageInfer
	StageAnalyze = pipeline.StageAnalyze
)

// WithLocPref overrides the LocPrf calibration configuration.
func WithLocPref(cfg LocPrefConfig) Option { return pipeline.WithLocPref(cfg) }

// WithParallelism bounds the number of concurrent pipeline workers.
// One means fully sequential execution; values < 1 restore the default
// (GOMAXPROCS). Output is deterministic at every setting.
func WithParallelism(n int) Option { return pipeline.WithParallelism(n) }

// WithProgress installs a progress observer on the pipeline stages.
func WithProgress(fn ProgressFunc) Option { return pipeline.WithProgress(fn) }

// SourceBytes wraps an in-memory archive as a reusable source.
func SourceBytes(name string, data []byte) Source { return pipeline.Bytes(name, data) }

// SourceReader wraps a one-shot stream as a source.
func SourceReader(name string, r io.Reader) Source { return pipeline.Reader(name, r) }

// SourceFile reads an archive from disk, re-opened on every run.
func SourceFile(path string) Source { return pipeline.File(path) }

// SourceDir lists a directory's regular files as sources in name order.
func SourceDir(dir string) ([]Source, error) { return pipeline.Dir(dir) }

// SourceGlob expands a filepath pattern into file sources.
func SourceGlob(pattern string) ([]Source, error) { return pipeline.Glob(pattern) }

// SourceMRT resolves a file-or-directory path into MRT sources (a
// directory contributes its *.mrt files).
func SourceMRT(path string) ([]Source, error) { return pipeline.ExpandMRT(path) }

// SourceMRTList resolves a comma-separated list of files and
// directories into MRT sources; empty elements are ignored.
func SourceMRTList(list string) ([]Source, error) { return pipeline.ExpandMRTList(list) }

// RunPipeline executes the v2 staged pipeline: concurrent ingest of
// every archive, parallel per-plane inference, memoized analysis.
func RunPipeline(ctx context.Context, in Sources, opts ...Option) (*Analysis, error) {
	return core.RunPipeline(ctx, in, opts...)
}

// DefaultOptions returns the paper-faithful pipeline configuration.
func DefaultOptions() Options { return core.DefaultOptions() }

// Run executes the full pipeline from raw inputs. It is the v1 entry
// point, kept as a thin compatibility wrapper over RunPipeline; output
// is identical.
func Run(in Inputs, opt Options) (*Analysis, error) { return core.Run(in, opt) }

// Serving vocabulary, re-exported from internal/snapshot and
// internal/serve.
type (
	// Snapshot is the persisted, queryable artifact of a run: the
	// per-plane relationship tables, link sets, hybrid list, and
	// headline statistics, behind a versioned binary codec.
	Snapshot = snapshot.Snapshot
	// SnapshotLink is one observed link with its path visibility.
	SnapshotLink = snapshot.Link
	// Server serves a snapshot over the HTTP JSON API with indexed
	// lookups and lock-free hot reload.
	Server = serve.Server
	// ServerOption customizes a Server.
	ServerOption = serve.Option
)

// WithReload installs the loader invoked by the server's hot-reload
// paths (POST /v1/reload, and SIGHUP in cmd/hybridserve).
func WithReload(fn func(context.Context) (*Snapshot, error)) ServerOption {
	return serve.WithSource(fn)
}

// MetricsRegistry collects a process's metric series — counters,
// gauges, and latency histograms — and renders them in the Prometheus
// text exposition format. Use one registry per serving process;
// registering the same series twice panics by design.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WithServerMetrics instruments every endpoint (request and status
// counters, in-flight gauges, latency histograms, snapshot-freshness
// gauges) into reg and mounts GET /metrics on the server.
func WithServerMetrics(reg *MetricsRegistry) ServerOption { return serve.WithMetrics(reg) }

// WithAccessLog writes one JSON object per completed request to w.
func WithAccessLog(w io.Writer) ServerOption { return serve.WithAccessLog(w) }

// WithRequestTimeout bounds every data-plane request; a handler that
// exceeds it yields 503 and a timeout-counter increment. Zero disables.
func WithRequestTimeout(d time.Duration) ServerOption { return serve.WithRequestTimeout(d) }

// WithReloadTimeout bounds snapshot reloads (POST /v1/reload, SIGHUP);
// a loader that exceeds it yields 504 and the previous snapshot keeps
// serving. Zero disables.
func WithReloadTimeout(d time.Duration) ServerOption { return serve.WithReloadTimeout(d) }

// WithMaxInflight sheds load: requests beyond n concurrently in flight
// are answered 429 with Retry-After instead of queueing. Zero disables.
func WithMaxInflight(n int) ServerOption { return serve.WithMaxInflight(n) }

// WithHistory keeps the last n installed snapshots on the server and
// enables ?at=<RFC3339|unix> time-travel queries on /v1/rel and
// /v1/as/{asn}: each answers from the newest retained snapshot not
// younger than the requested time (404 when the server never had data
// that old, 410 once it has rolled off the ring). Zero disables.
func WithHistory(n int) ServerOption { return serve.WithHistory(n) }

// PipelineMetrics counts ingest work — archives, parsed records, and
// parse errors — as cumulative series in a metrics registry.
type PipelineMetrics = pipeline.Metrics

// NewPipelineMetrics registers the pipeline ingest series in reg.
func NewPipelineMetrics(reg *MetricsRegistry) *PipelineMetrics { return pipeline.NewMetrics(reg) }

// WithPipelineMetrics folds every RunPipeline ingest into m.
func WithPipelineMetrics(m *PipelineMetrics) Option { return pipeline.WithMetrics(m) }

// CaptureSnapshot extracts the queryable products of an analysis into
// a snapshot, forcing every memoized derivation.
func CaptureSnapshot(a *Analysis) *Snapshot { return snapshot.Capture(a) }

// WriteSnapshot captures a and encodes it to w with the versioned
// binary codec (gzip-compressed). ReadSnapshot reproduces every
// queryable product exactly.
func WriteSnapshot(w io.Writer, a *Analysis) error { return snapshot.Write(w, a) }

// WriteSnapshotFile writes a's snapshot to path atomically (temp file
// + rename), so a serving process hot-reloading the path never sees a
// half-written artifact.
func WriteSnapshotFile(path string, a *Analysis) error { return snapshot.WriteFile(path, a) }

// ReadSnapshot decodes a snapshot. Malformed input — wrong file type,
// a future format version, truncation, corruption — returns a
// descriptive error, never a panic.
func ReadSnapshot(r io.Reader) (*Snapshot, error) { return snapshot.Read(r) }

// OpenSnapshot reads a snapshot file.
func OpenSnapshot(path string) (*Snapshot, error) { return snapshot.Open(path) }

// WriteSnapshotFileV2 writes a's snapshot to path atomically in format
// version 2: fixed-width little-endian sections that MapSnapshot can
// serve in place without a decode pass. OpenSnapshot reads both
// formats; version-1 consumers need WriteSnapshotFile.
func WriteSnapshotFileV2(path string, a *Analysis) error {
	return snapshot.WriteFileV2(path, snapshot.Capture(a))
}

// MapSnapshot memory-maps a format-v2 snapshot file and serves its
// tables in place: load time is independent of snapshot size and the
// resident set is only the pages queries actually touch. The caller
// must Close the snapshot when done with it; a Server given a mapped
// snapshot handles that across hot reloads. Version-1 files cannot be
// mapped — re-export them with WriteSnapshotFileV2.
func MapSnapshot(path string) (*Snapshot, error) { return snapshot.Map(path) }

// NewServer builds the HTTP serving layer over a snapshot; the
// returned Server is an http.Handler.
func NewServer(snap *Snapshot, opts ...ServerOption) *Server { return serve.New(snap, opts...) }

// Serve exposes snap on addr until ctx is canceled, then shuts down
// gracefully (in-flight requests get five seconds to finish). For
// reload hooks or custom wiring, use NewServer with net/http directly.
func Serve(ctx context.Context, addr string, snap *Snapshot) error {
	return serve.New(snap).ListenAndServe(ctx, addr, 5*time.Second)
}

// WorldConfig configures the synthetic Internet generator.
type WorldConfig = gen.Config

// DefaultWorldConfig is the experiment-scale world (≈12k IPv4 ASes, ≈3k
// IPv6 ASes) whose headline ratios land near the paper's.
func DefaultWorldConfig() WorldConfig { return gen.DefaultConfig() }

// SmallWorldConfig is a fast test-scale world with the same structure.
func SmallWorldConfig() WorldConfig { return gen.SmallConfig() }

// World is a synthesized measurement world: the generated ground truth
// plus the serialized MRT archives and IRR database observed from it.
type World struct {
	// Internet is the generated ground truth (exposed for scoring).
	Internet *gen.Internet
	// Archives4 / Archives6 hold one MRT TABLE_DUMP_V2 archive per
	// collector and plane.
	Archives4 [][]byte
	Archives6 [][]byte
	// IRR is the RPSL database documenting community schemes.
	IRR []byte
}

// SynthesizeTime is the timestamp stamped into synthetic archives: the
// paper's measurement month.
var SynthesizeTime = time.Date(2010, 8, 1, 0, 0, 0, 0, time.UTC)

// Synthesize generates a world and collects it into MRT and IRR bytes
// through the same wire formats a real collector would produce.
func Synthesize(cfg WorldConfig) (*World, error) {
	return SynthesizeCollectors(cfg, 2)
}

// SynthesizeCollectors is Synthesize with an explicit collector count.
func SynthesizeCollectors(cfg WorldConfig, collectors int) (*World, error) {
	in, err := gen.Build(cfg)
	if err != nil {
		return nil, err
	}
	w := &World{Internet: in}
	cols := collector.Assign(in, collectors)
	for _, af := range []asrel.AF{asrel.IPv4, asrel.IPv6} {
		bufs := make([]*bytes.Buffer, len(cols))
		ws := make([]io.Writer, len(cols))
		for i := range bufs {
			bufs[i] = &bytes.Buffer{}
			ws[i] = bufs[i]
		}
		if err := collector.DumpAll(in, af, cols, ws, SynthesizeTime); err != nil {
			return nil, fmt.Errorf("hybridrel: collect %s: %w", af, err)
		}
		for _, b := range bufs {
			if af == asrel.IPv6 {
				w.Archives6 = append(w.Archives6, b.Bytes())
			} else {
				w.Archives4 = append(w.Archives4, b.Bytes())
			}
		}
	}
	var irr bytes.Buffer
	if err := in.WriteIRR(&irr); err != nil {
		return nil, err
	}
	w.IRR = irr.Bytes()
	return w, nil
}

// Sources adapts the world's serialized archives into v2 pipeline
// sources. Unlike Inputs, the sources are reusable: the same Sources
// value can feed any number of RunPipeline calls.
func (w *World) Sources() Sources {
	var s Sources
	for i, a := range w.Archives4 {
		s.MRT4 = append(s.MRT4, SourceBytes(fmt.Sprintf("ipv4/collector%02d", i), a))
	}
	for i, a := range w.Archives6 {
		s.MRT6 = append(s.MRT6, SourceBytes(fmt.Sprintf("ipv6/collector%02d", i), a))
	}
	s.IRR = SourceBytes("irr", w.IRR)
	return s
}

// Inputs adapts the world's serialized archives into v1 pipeline
// inputs (one-shot readers). Kept for compatibility; new code should
// use Sources.
func (w *World) Inputs() Inputs {
	in := Inputs{IRR: bytes.NewReader(w.IRR)}
	for _, a := range w.Archives4 {
		in.MRT4 = append(in.MRT4, bytes.NewReader(a))
	}
	for _, a := range w.Archives6 {
		in.MRT6 = append(in.MRT6, bytes.NewReader(a))
	}
	return in
}
