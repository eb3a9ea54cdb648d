package main

import (
	"strings"
	"testing"
)

func testDeclaration() *declaration {
	return &declaration{
		Workloads: []workload{{Name: "serve-100k"}, {Name: "batch-10k"}},
		EndToEnd: []metricDecl{
			{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		},
	}
}

func result(workload string, nproc int, traced bool, p50, qps float64, attempted, failed int) Result {
	return Result{
		Workload: workload, Traced: traced,
		Env:       Env{NumCPU: nproc, GOMAXPROCS: nproc},
		Attempted: attempted, Failed: failed,
		Metrics: map[string]Metric{
			"op_p50_ms": {Value: p50, Unit: "ms"},
			"ops_per_s": {Value: qps, Unit: "1/s"},
		},
	}
}

func verdicts(rows []comparison) map[string]bool {
	out := make(map[string]bool)
	for _, r := range rows {
		out[r.Workload+"/"+r.Metric] = r.OK
	}
	return out
}

func TestCompareAppliesBounds(t *testing.T) {
	base := []Result{
		result("serve-100k", 2, false, 10, 1000, 100, 0),
		result("serve-100k", 2, false, 12, 1100, 100, 0),
		result("serve-100k", 2, false, 11, 900, 100, 0),
	}
	for _, tc := range []struct {
		name string
		head []Result
		want map[string]bool
	}{
		{
			name: "same",
			head: base,
			want: map[string]bool{"serve-100k/op_p50_ms": true, "serve-100k/ops_per_s": true, "serve-100k/fail_ratio": true},
		},
		{
			name: "within bounds",
			head: []Result{result("serve-100k", 2, false, 12, 910, 100, 0)},
			want: map[string]bool{"serve-100k/op_p50_ms": true, "serve-100k/ops_per_s": true},
		},
		{
			name: "slower past the bound",
			head: []Result{result("serve-100k", 2, false, 12.2, 1000, 100, 0)},
			want: map[string]bool{"serve-100k/op_p50_ms": false, "serve-100k/ops_per_s": true},
		},
		{
			name: "throughput down past the bound",
			head: []Result{result("serve-100k", 2, false, 11, 890, 100, 0)},
			want: map[string]bool{"serve-100k/op_p50_ms": true, "serve-100k/ops_per_s": false},
		},
		{
			name: "better is never a regression",
			head: []Result{result("serve-100k", 2, false, 1, 9000, 100, 0)},
			want: map[string]bool{"serve-100k/op_p50_ms": true, "serve-100k/ops_per_s": true},
		},
		{
			name: "failures past the absolute bound",
			head: []Result{result("serve-100k", 2, false, 11, 1000, 1000, 2)},
			want: map[string]bool{"serve-100k/fail_ratio": false},
		},
		{
			name: "traced runs are not compared",
			head: []Result{
				result("serve-100k", 2, false, 11, 1000, 100, 0),
				result("serve-100k", 2, true, 99, 1, 100, 0),
			},
			want: map[string]bool{"serve-100k/op_p50_ms": true, "serve-100k/ops_per_s": true},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows, err := compare(testDeclaration(), base, tc.head)
			if err != nil {
				t.Fatal(err)
			}
			got := verdicts(rows)
			for k, want := range tc.want {
				if ok, found := got[k]; !found || ok != want {
					t.Errorf("%s: ok=%v (present %v), want %v", k, ok, found, want)
				}
			}
			if _, found := got["batch-10k/op_p50_ms"]; found {
				t.Error("compared a workload only one set ran")
			}
		})
	}
}

func TestCompareRefusesDifferentCPUCounts(t *testing.T) {
	base := []Result{result("serve-100k", 2, false, 10, 1000, 100, 0)}
	for _, head := range [][]Result{
		{result("serve-100k", 4, false, 10, 1000, 100, 0)},
		{{Workload: "serve-100k", Env: Env{NumCPU: 2, GOMAXPROCS: 1}}},
	} {
		if _, err := compare(testDeclaration(), base, head); err == nil || !strings.Contains(err.Error(), "CPU counts") {
			t.Errorf("compare with %+v: err = %v, want a CPU-count refusal", head[0].Env, err)
		}
	}
}

func TestCompareRefusesDifferentRunLengths(t *testing.T) {
	base := []Result{result("serve-100k", 2, false, 10, 1000, 100, 0)}
	head := []Result{result("serve-100k", 2, false, 10, 1000, 100, 0)}
	base[0].Seconds, head[0].Seconds = 20, 15
	if _, err := compare(testDeclaration(), base, head); err == nil || !strings.Contains(err.Error(), "lengths") {
		t.Errorf("compare of 20 s and 15 s runs: err = %v, want a run-length refusal", err)
	}
}

func TestCompareBoundsReaderTail(t *testing.T) {
	decl := testDeclaration()
	decl.Workloads = append(decl.Workloads, workload{Name: "reload-100k"})
	decl.PerLayer = []metricDecl{{Name: "read.p99_us", Unit: "us", Better: "lower"}}
	reload := func(p99 float64) []Result {
		var rs []Result
		for _, w := range []string{"serve-100k", "reload-100k"} {
			r := result(w, 2, false, 10, 1000, 100, 0)
			r.Metrics["read.p99_us"] = Metric{Value: p99, Unit: "us"}
			rs = append(rs, r)
		}
		return rs
	}
	for _, tc := range []struct {
		head float64
		want bool
	}{
		{100 * (1 + readerTailBound) * 0.99, true},
		{100 * (1 + readerTailBound) * 1.01, false},
	} {
		rows, err := compare(decl, reload(100), reload(tc.head))
		if err != nil {
			t.Fatal(err)
		}
		if ok, found := verdicts(rows)["reload-100k/read.p99_us"]; !found || ok != tc.want {
			t.Errorf("reader p99 100 → %.1f µs: ok=%v (present %v), want %v", tc.head, ok, found, tc.want)
		}
		if _, found := verdicts(rows)["serve-100k/read.p99_us"]; found {
			t.Error("bounded the reader tail on serve-100k, where reads are the operation")
		}
	}
}

func TestCompareNeedsSharedWorkload(t *testing.T) {
	base := []Result{result("serve-100k", 2, false, 10, 1000, 100, 0)}
	head := []Result{result("batch-10k", 2, false, 10, 1000, 100, 0)}
	if _, err := compare(testDeclaration(), base, head); err == nil {
		t.Error("compare of disjoint sets succeeded")
	}
}
