package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// declaration is BENCHMARK.json: the workloads and every metric with
// its unit, direction and, for end-to-end metrics, regression bound.
type declaration struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workload   `json:"workloads"`
	EndToEnd   []metricDecl `json:"end_to_end"`
	PerLayer   []metricDecl `json:"per_layer"`
}

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline's median by which the metric
	// may get worse before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
}

func loadDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("declaration: %w", err)
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("declaration %s: %w", path, err)
	}
	for _, w := range d.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return nil, fmt.Errorf("declaration %s: workload %q is not implemented", path, w.Name)
		}
	}
	if d.RunSeconds < 1 {
		return nil, fmt.Errorf("declaration %s: run_seconds must be at least 1", path)
	}
	return &d, nil
}

// maxFailRatioIncrease is the absolute amount by which the share of
// failed operations may grow between two result sets.
const maxFailRatioIncrease = 0.001

// readerTailBound is -compare's bound on readerTail, the tail of the
// closed-loop reader that runs beside the writes of readerWorkloads.
// BENCHMARK.json bounds the end-to-end metrics every workload reports;
// this per-layer row catches a change that makes swaps or reloads slow
// the reads served beside them. It is wider than the declared bounds
// because the reader's tail spreads more between runs (README.md).
const (
	readerTail      = "read.p99_us"
	readerTailBound = 0.6
)

var readerWorkloads = []string{"live-10k", "reload-100k"}

// comparison is one (workload, metric) row of a compare report.
type comparison struct {
	Workload string
	Metric   string
	Unit     string
	Base     float64 // median over the first set's runs
	Head     float64 // median over the second set's runs
	// Worse is how much worse Head is than Base, as a share of Base for
	// the bounded metrics and as an absolute difference for the failure
	// ratio; negative means better.
	Worse float64
	Bound float64
	OK    bool
}

// compare applies the bounds to two result sets: for every workload both
// sets ran untraced, each end-to-end metric's median in head may be
// worse than in base by at most the metric's declared bound, the reader
// tail on readerWorkloads by at most readerTailBound, and the failure
// ratio may grow by at most maxFailRatioIncrease. Sets recorded at
// different CPU counts or run lengths are refused: their numbers do not
// compare.
func compare(decl *declaration, base, head []Result) ([]comparison, error) {
	if err := sameCPUCount(base, head); err != nil {
		return nil, err
	}
	if err := sameRunLength(base, head); err != nil {
		return nil, err
	}
	b, h := untracedByWorkload(base), untracedByWorkload(head)
	var out []comparison
	for _, w := range decl.Workloads {
		br, hr := b[w.Name], h[w.Name]
		if len(br) == 0 || len(hr) == 0 {
			continue
		}
		for _, m := range decl.EndToEnd {
			out = append(out, bounded(w.Name, m, m.Bound, br, hr))
		}
		if slices.Contains(readerWorkloads, w.Name) {
			m, ok := decl.perLayer(readerTail)
			if !ok {
				return nil, fmt.Errorf("compare: %s is not a declared per-layer metric", readerTail)
			}
			out = append(out, bounded(w.Name, m, readerTailBound, br, hr))
		}
		bf, hf := failRatio(br), failRatio(hr)
		out = append(out, comparison{w.Name, "fail_ratio", "ratio", bf, hf, hf - bf, maxFailRatioIncrease, hf-bf <= maxFailRatioIncrease})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("compare: the two sets share no untraced workload")
	}
	return out, nil
}

// bounded compares one metric's medians over two sets of runs of a
// workload against a relative bound.
func bounded(workload string, m metricDecl, bound float64, br, hr []Result) comparison {
	bv, hv := medianOf(br, m.Name), medianOf(hr, m.Name)
	worse := (hv - bv) / bv
	if m.Better == "higher" {
		worse = -worse
	}
	if bv == 0 || math.IsNaN(bv) || math.IsNaN(hv) {
		worse = math.Inf(1) // missing or zero: nothing to compare against
	}
	return comparison{workload, m.Name, m.Unit, bv, hv, worse, bound, worse <= bound}
}

func (d *declaration) perLayer(name string) (metricDecl, bool) {
	for _, m := range d.PerLayer {
		if m.Name == name {
			return m, true
		}
	}
	return metricDecl{}, false
}

func sameCPUCount(sets ...[]Result) error {
	n := -1
	for _, rs := range sets {
		for _, r := range rs {
			if n == -1 {
				n = r.Env.NumCPU
			}
			if r.Env.NumCPU != n || r.Env.GOMAXPROCS != r.Env.NumCPU {
				return fmt.Errorf("compare: refusing to compare runs recorded at different CPU counts (nproc %d vs %d, GOMAXPROCS %d)",
					n, r.Env.NumCPU, r.Env.GOMAXPROCS)
			}
		}
	}
	return nil
}

// sameRunLength refuses sets whose runs measured for different times:
// the live workload's churn volume, its swap count and every peak grow
// with the run's length.
func sameRunLength(sets ...[]Result) error {
	s := -1.0
	for _, rs := range sets {
		for _, r := range rs {
			if s < 0 {
				s = r.Seconds
			}
			if r.Seconds != s {
				return fmt.Errorf("compare: refusing to compare runs of different lengths (%gs vs %gs)", s, r.Seconds)
			}
		}
	}
	return nil
}

func untracedByWorkload(rs []Result) map[string][]Result {
	out := make(map[string][]Result)
	for _, r := range rs {
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out
}

func medianOf(rs []Result, metric string) float64 {
	var d dist
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			d = append(d, m.Value)
		}
	}
	return d.median()
}

func failRatio(rs []Result) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

// runCompare prints the comparison of two -json result files and exits
// non-zero when any row breaks its bound.
func runCompare(decl *declaration, basePath, headPath string, stdout, stderr io.Writer) int {
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	head, err := readResults(headPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rows, err := compare(decl, base, head)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Workload < rows[j].Workload })
	code := 0
	for _, r := range rows {
		verdict := "ok"
		if !r.OK {
			verdict = "REGRESSION"
			code = 1
		}
		fmt.Fprintf(stdout, "%-12s %-14s %14.6g %14.6g %-6s worse %+8.4f bound %.4f  %s\n",
			r.Workload, r.Metric, r.Base, r.Head, r.Unit, r.Worse, r.Bound, verdict)
	}
	return code
}
