package main

// Smoke tests for the experiments CLI through the testable run()
// entry point: flag errors, the -json document schema (pinned against
// the shared golden numbers), and the -scenarios matrix surface.

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hybridrel/internal/cli"
	"hybridrel/internal/golden"
	"hybridrel/internal/scenario"
	"hybridrel/internal/serve"
)

func TestRunFlagErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &out, &errb); !errors.Is(err, cli.ErrUsage) {
		t.Fatalf("bad flag: err = %v, want cli.ErrUsage", err)
	}
	// -h prints usage and maps to flag.ErrHelp (main exits 0), never to
	// the exit-2 usage error.
	if err := run([]string{"-h"}, &out, &errb); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(errb.String(), "definitely-not-a-flag") {
		t.Errorf("stderr did not name the bad flag: %q", errb.String())
	}
	if err := run([]string{"-scale", "galactic"}, &out, &errb); err == nil ||
		!strings.Contains(err.Error(), "galactic") {
		t.Fatalf("bad -scale: err = %v, want named error", err)
	}
	if err := run([]string{"-scenarios", "-tier", "bogus"}, &out, &errb); err == nil ||
		!strings.Contains(err.Error(), "bogus") {
		t.Fatalf("bad -tier: err = %v, want named error", err)
	}
	errb.Reset()
	if err := run([]string{"-top", "-1", "-scale", "small"}, &out, &errb); !errors.Is(err, cli.ErrUsage) {
		t.Fatalf("-top -1: err = %v, want cli.ErrUsage", err)
	}
	if !strings.Contains(errb.String(), "-top") {
		t.Errorf("stderr did not name -top: %q", errb.String())
	}
}

func TestRunJSONSchema(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-scale", "small", "-json"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	var doc struct {
		Stats   serve.StatsResponse `json:"stats"`
		Hybrids []serve.HybridJSON  `json:"hybrids"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("-json output is not the serve schema: %v\n%s", err, out.String())
	}
	g := golden.Small()
	if doc.Stats.Coverage.Paths6 != g.Coverage.Paths6 {
		t.Errorf("json paths6 = %d, want golden %d", doc.Stats.Coverage.Paths6, g.Coverage.Paths6)
	}
	if len(doc.Hybrids) != g.Hybrid {
		t.Errorf("json hybrid list has %d entries, want golden %d", len(doc.Hybrids), g.Hybrid)
	}
}

var (
	matrixOnce sync.Once
	matrixOut  []byte
	matrixErr  error
)

// matrixJSON runs the short-tier matrix through the CLI exactly once;
// the schema and rendering tests share its output instead of each
// paying for a full matrix execution.
func matrixJSON(t *testing.T) []byte {
	t.Helper()
	matrixOnce.Do(func() {
		var out, errb bytes.Buffer
		if err := run([]string{"-scenarios", "-tier", "short", "-json"}, &out, &errb); err != nil {
			matrixErr = fmt.Errorf("run -scenarios: %v (stderr: %s)", err, errb.String())
			return
		}
		matrixOut = out.Bytes()
	})
	if matrixErr != nil {
		t.Fatal(matrixErr)
	}
	return matrixOut
}

func TestRunScenariosJSON(t *testing.T) {
	var results []scenario.Result
	if err := json.Unmarshal(matrixJSON(t), &results); err != nil {
		t.Fatalf("-scenarios -json is not a result list: %v", err)
	}
	if len(results) < 6 {
		t.Fatalf("matrix reported %d scenarios, want >= 6", len(results))
	}
	for _, r := range results {
		if len(r.Invariants) != 5 || !(&r).InvariantsOK() {
			t.Errorf("%s: invariants %+v", r.Name, r.Invariants)
		}
		if len(r.Planes) != 2 {
			t.Errorf("%s: planes %+v", r.Name, r.Planes)
		}
	}
}

func TestRunScenariosTable(t *testing.T) {
	// Render the shared matrix run's results through the same table
	// writer the CLI's non-JSON branch calls.
	var results []scenario.Result
	if err := json.Unmarshal(matrixJSON(t), &results); err != nil {
		t.Fatal(err)
	}
	rs := make([]*scenario.Result, len(results))
	for i := range results {
		rs[i] = &results[i]
	}
	var out bytes.Buffer
	if err := scenario.WriteTable(&out, rs); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scenario matrix", "baseline", "dark-communities", "ipv6"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table output missing %q", want)
		}
	}
}
