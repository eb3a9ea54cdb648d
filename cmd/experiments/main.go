// Command experiments regenerates every table and figure of Giotsas &
// Zhou (SIGCOMM 2011) on the synthetic measurement world: the dataset
// summary (T1), the hybrid census (T2), hybrid path visibility (T3),
// the valley-path taxonomy (T4), the Figure-1 customer-tree example,
// the Figure-2 correction sweep, and the extra baseline-accuracy study
// (X1). Paper values are printed alongside the measured ones;
// EXPERIMENTS.md records the comparison.
//
// With -json the headline results (T1–T4 plus the hybrid list) are
// printed as one machine-readable document using the same structs the
// serving API returns, so batch output and the HTTP schema never
// drift; the figure sweeps and the accuracy study stay table-only.
//
// With -scenarios the paper tables are skipped and the ground-truth
// validation matrix (internal/scenario) runs instead: every scenario
// family end to end, graded per plane and per relationship class
// against the planted truth, with the differential invariant suite.
// The command exits non-zero if any invariant fails.
//
// Usage:
//
//	experiments [-scale small|default] [-seed N] [-top N] [-parallel N] [-exact] [-json]
//	experiments -scenarios [-tier short|full|10k] [-parallel N] [-json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"time"

	"hybridrel"
	"hybridrel/internal/asrel"
	"hybridrel/internal/cli"
	"hybridrel/internal/core"
	"hybridrel/internal/infer"
	"hybridrel/internal/infer/gao"
	"hybridrel/internal/infer/rank"
	"hybridrel/internal/intern"
	"hybridrel/internal/report"
	"hybridrel/internal/scenario"
	"hybridrel/internal/serve"
	"hybridrel/internal/topology"
)

func main() { cli.Main("experiments", run) }

// run is the testable entry point: it parses args, writes results to
// stdout and progress to stderr, and returns instead of exiting.
func run(args []string, stdout, stderr io.Writer) error {
	logger := log.New(stderr, "experiments: ", 0)
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale     = fs.String("scale", "default", "world scale: small | default")
		seed      = fs.Int64("seed", 42, "generator seed")
		topN      = fs.Int("top", 20, "corrections in the Figure-2 sweep")
		full      = fs.Bool("full-sweep", false, "also sweep every detected hybrid")
		parallel  = fs.Int("parallel", 0, "pipeline workers (0 = all cores)")
		jsonOut   = fs.Bool("json", false, "print machine-readable JSON instead of tables")
		scenarios = fs.Bool("scenarios", false, "run the scenario validation matrix instead of the paper tables")
		tier      = fs.String("tier", "short", "scenario matrix tier: short | full | 10k")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *topN < 0 {
		fmt.Fprintf(stderr, "experiments: -top must be >= 0, got %d\n", *topN)
		return cli.ErrUsage
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *scenarios {
		return runScenarios(ctx, *tier, *parallel, *jsonOut, stdout, logger)
	}

	cfg := hybridrel.DefaultWorldConfig()
	switch *scale {
	case "small":
		cfg = hybridrel.SmallWorldConfig()
	case "default":
	default:
		return fmt.Errorf("unknown -scale %q (want small or default)", *scale)
	}
	cfg.Seed = *seed

	start := time.Now()
	logger.Printf("building synthetic world (%s scale, seed %d)...", *scale, *seed)
	w, err := hybridrel.Synthesize(cfg)
	if err != nil {
		return err
	}
	logger.Printf("world ready in %v: %d ASes, %d v6 ASes, %d archives per plane",
		time.Since(start).Round(time.Millisecond),
		len(w.Internet.Order), w.Internet.Graph6.NumNodes(), len(w.Archives6))

	start = time.Now()
	a, err := hybridrel.RunPipeline(ctx, w.Sources(),
		hybridrel.WithParallelism(*parallel),
		hybridrel.WithProgress(func(st hybridrel.Stage, ev hybridrel.Event) {
			logger.Printf("pipeline %s: %s (%d/%d)", st, ev.Item, ev.Done, ev.Total)
		}))
	if err != nil {
		return err
	}
	// The pipeline was the cancellable phase; restore default SIGINT
	// behavior so Ctrl-C still kills the (potentially long) sweeps.
	stop()
	logger.Printf("pipeline done in %v", time.Since(start).Round(time.Millisecond))

	if *jsonOut {
		snap := hybridrel.CaptureSnapshot(a)
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Stats   serve.StatsResponse `json:"stats"`
			Hybrids []serve.HybridJSON  `json:"hybrids"`
		}{serve.StatsOf(snap), serve.HybridsOf(snap.Hybrids)})
	}

	for _, step := range []func(io.Writer, *core.Analysis) error{t1, t2, t3, t4} {
		if err := step(stdout, a); err != nil {
			return err
		}
	}
	if err := figure1(stdout); err != nil {
		return err
	}
	if err := figure2(stdout, a, *topN, *full); err != nil {
		return err
	}
	return x1(stdout, w, a)
}

// parseTier maps the -tier flag onto scenario tiers.
func parseTier(tier string) (scenario.Tier, error) {
	switch tier {
	case "short":
		return scenario.TierShort, nil
	case "full":
		return scenario.TierFull, nil
	case "10k":
		return scenario.Tier10k, nil
	}
	return 0, fmt.Errorf("unknown -tier %q (want short, full or 10k)", tier)
}

// runScenarios executes the validation matrix and renders it as JSON
// or tables. Failed invariants surface as a non-nil error after the
// full report is written.
func runScenarios(ctx context.Context, tier string, parallel int, jsonOut bool, stdout io.Writer, logger *log.Logger) error {
	t, err := parseTier(tier)
	if err != nil {
		return err
	}
	start := time.Now()
	scs := scenario.Matrix()
	logger.Printf("running %d scenario families (%s tier)...", len(scs), t)
	results, err := scenario.RunMatrix(ctx, scs, scenario.Options{Tier: t, Parallelism: parallel})
	if err != nil {
		return err
	}
	logger.Printf("matrix done in %v", time.Since(start).Round(time.Millisecond))

	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return err
		}
	} else if err := scenario.WriteTable(stdout, results); err != nil {
		return err
	}
	for _, r := range results {
		if !r.InvariantsOK() {
			return fmt.Errorf("scenario %s failed its invariant suite", r.Name)
		}
	}
	return nil
}

// t1 prints the dataset summary (§3 ¶1).
func t1(out io.Writer, a *core.Analysis) error {
	c := a.Coverage()
	t := report.NewTable("T1 — dataset summary (§3 ¶1)",
		"quantity", "paper (Aug 2010)", "measured")
	t.Row("IPv6 AS paths", "346,649", c.Paths6)
	t.Row("IPv6 AS links", "10,535", c.Links6)
	t.Row("IPv4/IPv6 (dual-stack) links", "7,618", c.DualStack)
	t.Row("IPv6 links with recovered ToR", "72%", report.Pct(c.Share6()))
	t.Row("dual-stack links with recovered ToR", "81%", report.Pct(c.ShareDual()))
	return t.Write(out)
}

// t2 prints the hybrid census (§3 ¶2).
func t2(out io.Writer, a *core.Analysis) error {
	census := a.HybridCensus()
	t := report.NewTable("T2 — hybrid relationship census (§3 ¶2)",
		"quantity", "paper", "measured")
	t.Row("dual-stack links classified in both planes", "6,160", census.DualClassified)
	t.Row("hybrid links", "779 (13%)",
		fmt.Sprintf("%d (%s)", census.Hybrid, report.Pct(census.HybridShare())))
	t.Row("H1: v4 p2p / v6 transit", "67%", report.Pct(census.ClassShare(asrel.HybridPeerTransit)))
	t.Row("H2: v4 transit / v6 p2p", "~33%", report.Pct(census.ClassShare(asrel.HybridTransitPeer)))
	t.Row("H3: v4 p2c / v6 c2p (reversal)", "1 link", census.ByClass[asrel.HybridReversed])
	return t.Write(out)
}

// t3 prints hybrid visibility (§3 ¶3).
func t3(out io.Writer, a *core.Analysis) error {
	v := a.HybridVisibility()
	t := report.NewTable("T3 — hybrid visibility in IPv6 paths (§3 ¶3)",
		"quantity", "paper", "measured")
	t.Row("IPv6 paths crossing ≥1 hybrid link", ">28%", report.Pct(v.Share()))
	t.Row("mean v6 degree of hybrid endpoints", "(tier-1/tier-2)",
		fmt.Sprintf("%.1f", v.MeanHybridEndpointDegree))
	t.Row("mean v6 degree of dual-stack endpoints", "-",
		fmt.Sprintf("%.1f", v.MeanDualEndpointDegree))
	return t.Write(out)
}

// t4 prints the valley-path taxonomy (§3 ¶4).
func t4(out io.Writer, a *core.Analysis) error {
	st := a.ValleyReport()
	t := report.NewTable("T4 — valley paths (§3 ¶4)",
		"quantity", "paper", "measured")
	t.Row("IPv6 valley paths (of classifiable)", "13%", report.Pct(st.ValleyShare()))
	t.Row("valley paths necessary for reachability", "16%", report.Pct(st.NecessaryShare()))
	t.Row("valley / valley-free / unclassified", "-",
		fmt.Sprintf("%d / %d / %d", st.Valley, st.ValleyFree, st.Unclassified))
	return t.Write(out)
}

// figure1 reproduces the paper's toy example.
func figure1(out io.Writer) error {
	g := topology.FromLinks(nil, []asrel.LinkKey{{Lo: 1, Hi: 2}, {Lo: 1, Hi: 3}, {Lo: 2, Hi: 4}, {Lo: 2, Hi: 5}})
	mk := func(rel12 asrel.Rel) *intern.Table {
		t := asrel.NewTable()
		t.Set(1, 2, rel12)
		t.Set(1, 3, asrel.P2C)
		t.Set(2, 4, asrel.P2C)
		t.Set(2, 5, asrel.P2C)
		return intern.FromTable(t)
	}
	t := report.NewTable("F1 — customer tree of AS1 as link 1–2 flips (Figure 1)",
		"link 1–2", "customer tree of AS1", "paper")
	for _, rel := range []asrel.Rel{asrel.P2C, asrel.P2P} {
		cone := g.CustomerCone(mk(rel), 1)
		members := make([]asrel.ASN, 0, len(cone))
		for _, n := range g.Nodes() {
			if cone[n] {
				members = append(members, n)
			}
		}
		want := "all nodes"
		if rel == asrel.P2P {
			want = "only AS3"
		}
		t.Row(rel.String(), fmt.Sprintf("%v", members), want)
	}
	return t.Write(out)
}

// figure2 runs the correction sweep.
func figure2(out io.Writer, a *core.Analysis, topN int, full bool) error {
	rank6 := rank.Infer(a.D6.Paths(), rank.DefaultConfig())
	baseline := a.BaselineV6(a.Rel4, rank6.Table)
	pts := a.Figure2(baseline, topN, 0)
	t := report.NewTable(
		fmt.Sprintf("F2 — correcting the %d most visible hybrids (Figure 2; paper: avg 3.8→2.23, diameter 11→7)", topN),
		"corrected", "avg shortest valley-free path", "diameter", "tree pairs")
	for i, p := range pts {
		if i%2 == 0 || i == len(pts)-1 {
			t.Row(p.Corrected, p.Metric.Avg, p.Metric.Diameter, p.Metric.Pairs)
		}
	}
	if err := t.Write(out); err != nil {
		return err
	}
	if full {
		all := a.Figure2(baseline, len(a.Hybrids()), 0)
		last := all[len(all)-1].Metric
		fmt.Fprintf(out, "full sweep over %d hybrids: avg %.2f, diameter %d, pairs %d\n\n",
			len(all)-1, last.Avg, last.Diameter, last.Pairs)
	}
	return nil
}

// x1 scores the single-plane baselines against ground truth — the §4
// claim that existing algorithms cannot capture hybrid relationships.
func x1(out io.Writer, w *hybridrel.World, a *core.Analysis) error {
	gao6 := gao.Infer(a.D6.Paths(), gao.DefaultConfig())
	rank6 := rank.Infer(a.D6.Paths(), rank.DefaultConfig())
	hybridKeys := make([]asrel.LinkKey, 0, len(a.Hybrids()))
	for _, h := range a.Hybrids() {
		hybridKeys = append(hybridKeys, h.Key)
	}

	t := report.NewTable("X1 — baseline algorithms vs ground truth (IPv6 plane)",
		"algorithm", "coverage", "accuracy", "accuracy on hybrid links")
	for _, row := range []struct {
		name string
		tbl  *intern.Table
	}{
		{"gao (2001)", gao6.Table},
		{"as-rank style", rank6.Table},
		{"v4-applied (the [4] effect)", a.Rel4},
		{"communities+locpref (this paper)", a.Rel6},
	} {
		s := infer.ScoreTable(row.tbl, w.Internet.Truth6, a.D6.Links())
		h := infer.ScoreTable(row.tbl, w.Internet.Truth6, hybridKeys)
		t.Row(row.name, report.Pct(s.Coverage()), report.Pct(s.Accuracy()), report.Pct(h.Accuracy()))
	}
	return t.Write(out)
}
