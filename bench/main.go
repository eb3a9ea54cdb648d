// Command bench is the repository's end-to-end benchmark. It drives the
// system from outside, through the calls production uses — pipeline,
// core, snapshot, live.Runner, serve.New/Load and loopback TCP — on
// four workloads: batch-10k, live-10k, serve-100k and reload-100k.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload serve-100k -seed 7 [-trace 1] [-json out.json]
//	bash bench/run.sh -workload all -seed 7 -json set1.json
//	bash bench/run.sh -compare set1.json set2.json
//
// BENCHMARK.json at the repository root declares the metrics, their
// units, directions and regression bounds, and the workloads. A run
// prints every metric it measured by name, unit and sample count, and
// as its last line one JSON object with the declared end-to-end metrics
// (-trace 0) or per-layer metrics (-trace 1). It exits non-zero when an
// output check fails. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workloads maps each declared workload name to the function that runs it.
var workloads = map[string]func(context.Context, *env) error{
	"batch-10k":   runBatch,
	"live-10k":    runLive,
	"serve-100k":  runServe,
	"reload-100k": runReload,
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: "+workloadList()+" | all")
		seed     = fs.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = fs.Float64("seconds", 0, "measured time per run (default: run_seconds from the declaration; -compare refuses sets of different lengths)")
		trace    = fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		spans    = fs.String("spans", "", "span file of a traced run (default <workdir>/spans-<workload>-<seed>.json)")
		jsonOut  = fs.String("json", "", "also write the run's full result to this file")
		workdir  = fs.String("workdir", ".bench_build", "directory for the files a run writes")
		declPath = fs.String("benchmark", "BENCHMARK.json", "the benchmark declaration")
		compare  = fs.Bool("compare", false, "compare two -json result files: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	decl, err := loadDeclaration(*declPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return runCompare(decl, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(decl.RunSeconds)
	}
	if *workload == "all" {
		return runAll(ctx, decl, args, *workdir, *jsonOut, stdout, stderr)
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want %s or all)\n", *workload, workloadList())
		return 2
	}
	if *spans == "" {
		*spans = filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		workdir: *workdir,
		out:     stdout,
	}
	res, err := runOne(ctx, decl, *workload, e, *spans)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	if *jsonOut != "" {
		if err := writeResults(*jsonOut, []Result{res}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed their checks\n", *workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func workloadList() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, " | ")
}

// env is what a workload function gets: its parameters and the sinks for
// its measurements.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// tiny shrinks every input to smoke-test size.
	tiny    bool
	workdir string
	out     io.Writer

	rec    *recorder
	chk    checker
	tracer *Tracer
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.out, "# "+format+"\n", args...)
}

// scratchDir creates a fresh directory under the work directory and
// returns it with its removal.
func (e *env) scratchDir() (string, func(), error) {
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(e.workdir, "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// Env records where a result was measured.
type Env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

func currentEnv() Env {
	return Env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// Metric is one measured value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind the value; Pct names the percentile
	// a tail value was taken at.
	N   int    `json:"n,omitempty"`
	Pct string `json:"pct,omitempty"`
}

// recorder collects a run's metrics by name.
type recorder struct {
	mu sync.Mutex
	m  map[string]Metric
}

func newRecorder() *recorder { return &recorder{m: make(map[string]Metric)} }

func (r *recorder) set(name, unit string, v float64, n int) { r.setPct(name, unit, v, n, "") }

// setPct records a value; NaN, a statistic of an empty sample, records
// nothing.
func (r *recorder) setPct(name, unit string, v float64, n int, pct string) {
	if math.IsNaN(v) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[name] = Metric{Value: v, Unit: unit, N: n, Pct: pct}
}

// setDist records a timing's median and tail under name_p50_<unit> and
// name_tail_<unit>.
func (r *recorder) setDist(prefix, unit string, d dist) {
	r.set(prefix+"_p50_"+unit, unit, d.median(), len(d))
	v, pct := d.tail()
	r.setPct(prefix+"_tail_"+unit, unit, v, len(d), pct)
}

// checker counts attempted operations and those that failed: transport
// errors, 5xx and 429 responses, and failed output checks.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

// add counts n attempted operations.
func (c *checker) add(n int) {
	c.mu.Lock()
	c.attempted += n
	c.mu.Unlock()
}

// fail counts one failed operation; the first few are kept for the
// report.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted output check and fails it unless ok.
func (c *checker) check(ok bool, format string, args ...any) {
	c.add(1)
	if !ok {
		c.fail(format, args...)
	}
}

// Result is one run's full report, as written by -json.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Env       Env               `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
}

// runOne runs one workload and prints its metrics, ending with the
// one-line JSON summary.
func runOne(ctx context.Context, decl *declaration, name string, e *env, spansPath string) (Result, error) {
	e.rec = newRecorder()
	env := currentEnv()
	e.logf("workload=%s seed=%d seconds=%g traced=%v nproc=%d gomaxprocs=%d go=%s",
		name, e.seed, e.seconds.Seconds(), e.traced, env.NumCPU, env.GOMAXPROCS, env.GoVersion)
	if err := workloads[name](ctx, e); err != nil {
		return Result{}, err
	}
	if e.traced {
		if err := e.tracer.WriteFile(spansPath); err != nil {
			return Result{}, err
		}
		e.logf("spans: %d written to %s", len(e.tracer.Spans()), spansPath)
	}
	res := Result{
		Workload: name, Seed: e.seed, Seconds: e.seconds.Seconds(), Traced: e.traced, Env: env,
		Attempted: e.chk.attempted, Failed: e.chk.failed, Failures: e.chk.failures,
		Metrics: e.rec.m,
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, f := range res.Failures {
		e.logf("FAILED: %s", f)
	}
	e.logf("fail_ratio %.6g (%d of %d)", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)

	// Per-layer metrics of layers this workload never calls read 0;
	// every declared end-to-end metric must have been measured.
	declared := decl.EndToEnd
	if e.traced {
		declared = decl.PerLayer
	}
	summary := make(map[string]Metric, len(declared))
	for _, d := range declared {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok && e.traced:
			m = Metric{Unit: d.Unit}
			res.Metrics[d.Name] = m
		case !ok:
			return Result{}, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		case m.Unit != d.Unit:
			return Result{}, fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		summary[d.Name] = Metric{Value: m.Value, Unit: m.Unit}
	}
	printMetrics(e.out, res.Metrics)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, summary})
	if err != nil {
		return Result{}, err
	}
	fmt.Fprintf(e.out, "%s\n", line)
	return res, nil
}

func printMetrics(w io.Writer, ms map[string]Metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		extra := ""
		if m.N > 0 {
			extra = fmt.Sprintf("n=%d", m.N)
		}
		if m.Pct != "" {
			extra += " at " + m.Pct
		}
		fmt.Fprintf(w, "%-32s %16.6g %-6s %s\n", n, m.Value, m.Unit, extra)
	}
}

// runAll runs every declared workload, each in its own process so one
// workload's heap and peak RSS never carry into the next.
func runAll(ctx context.Context, decl *declaration, args []string, workdir, jsonOut string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(workdir, "all-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	var all []Result
	code := 0
	for i, w := range decl.Workloads {
		out := filepath.Join(tmp, fmt.Sprintf("%d.json", i))
		childArgs := append(withoutFlags(args, "workload", "json"), "-workload", w.Name, "-json", out)
		cmd := exec.CommandContext(ctx, self, childArgs...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
			code = 1
		}
		rs, err := readResults(out)
		if err != nil {
			code = 1
			continue
		}
		all = append(all, rs...)
	}
	if jsonOut != "" {
		if err := writeResults(jsonOut, all); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// withoutFlags drops the named flags (and their values) from args.
func withoutFlags(args []string, names ...string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		name := a
		for len(name) > 0 && name[0] == '-' {
			name = name[1:]
		}
		base, _, hasValue := strings.Cut(name, "=")
		if !slices.Contains(names, base) {
			out = append(out, a)
			continue
		}
		if !hasValue {
			i++ // skip the separate value
		}
	}
	return out
}

func writeResults(path string, rs []Result) error {
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

func readResults(path string) ([]Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read results: %w", err)
	}
	var rs []Result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("read results %s: %w", path, err)
	}
	if len(rs) == 0 {
		return nil, errors.New("read results: " + path + " holds no runs")
	}
	return rs, nil
}
