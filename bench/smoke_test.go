package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// stagesMeasured names, per workload, per-layer metrics that a traced
// run must measure above zero: the stages its traces are built from.
var stagesMeasured = map[string][]string{
	"batch-10k":   {"pipeline.ingest_ms", "infer.communities4_ms", "core.assemble_ms", "snapshot.write_v2_ms"},
	"live-10k":    {"live.snapshot_ms_p50", "live.swap_ms_p50", "serve.load_ms_p50", "live.resolve_ms_p50", "live.capture_ms_p50", "live.swaps"},
	"serve-100k":  {"serve.handler_rel_us_p50", "serve.net_us_p50"},
	"reload-100k": {"snapshot.map_ms", "serve.load_ms_p50", "serve.first_200_ms"},
}

// TestWorkloadsSmoke runs every declared workload on a tiny input, once
// untraced and once traced, and checks that every output check passes
// and that the last line holds exactly the declared metrics of the mode.
func TestWorkloadsSmoke(t *testing.T) {
	decl, err := loadDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range decl.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/untraced"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				var out bytes.Buffer
				e := &env{seed: 7, seconds: 1500 * time.Millisecond, traced: traced, tiny: true, workdir: dir, out: &out}
				spans := filepath.Join(dir, "spans.json")
				res, err := runOne(context.Background(), decl, w.Name, e, spans)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct {
					t.Fatalf("output checks failed: %v\n%s", res.Failures, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    int               `json:"failed"`
					Metrics   map[string]Metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the JSON summary: %v", err)
				}
				declared := decl.EndToEnd
				if traced {
					declared = decl.PerLayer
				}
				if len(last.Metrics) != len(declared) {
					t.Errorf("summary has %d metrics, %d declared", len(last.Metrics), len(declared))
				}
				for _, d := range declared {
					m, ok := last.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("declared metric %s missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s in %s, declared %s", d.Name, m.Unit, d.Unit)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
					t.Errorf("summary correct=%v attempted=%d failed=%d", last.Correct, last.Attempted, last.Failed)
				}
				if traced {
					b, err := os.ReadFile(spans)
					if err != nil {
						t.Fatal(err)
					}
					var ss []Span
					if err := json.Unmarshal(b, &ss); err != nil || len(ss) == 0 {
						t.Errorf("span file: %d spans, err %v", len(ss), err)
					}
					if share := res.Metrics["trace.residual_share"].Value; share > 0.1 {
						t.Errorf("stage spans leave %.1f%% of the operation unaccounted", 100*share)
					}
					for _, name := range stagesMeasured[w.Name] {
						if v := last.Metrics[name].Value; v <= 0 {
							t.Errorf("stage metric %s = %v, want > 0", name, v)
						}
					}
				}
			})
		}
	}
}

func TestWithoutFlags(t *testing.T) {
	got := withoutFlags([]string{"-workload", "all", "--seed", "3", "-json=x.json", "-trace", "1"}, "workload", "json")
	want := []string{"--seed", "3", "-trace", "1"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("withoutFlags = %q, want %q", got, want)
	}
}
