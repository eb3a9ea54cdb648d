// Package scenario is the ground-truth validation harness: a
// declarative matrix of topology regimes, each a seeded gen.Config
// family, run through the full production path — synthetic Internet →
// byte-level MRT/RPSL collection → concurrent pipeline → snapshot
// round-trip → serving endpoints — and graded against the planted
// ground truth with per-plane, per-relationship-class precision and
// recall.
//
// Every scenario also runs the shared differential invariant suite:
// the pipeline at parallelism 1 and N must produce byte-identical
// snapshots, the snapshot codec must round-trip to identical bytes,
// the HTTP serving layer must agree with the Analysis accessors, and
// the live streaming ingester must converge to the batch snapshot and
// replay its change stream deterministically.
// One matrix run therefore exercises the generator, collector,
// pipeline, inference, snapshot, and serve layers at once; it is the
// regression safety-net scale and performance work runs against.
//
// The matrix has two tiers: TierShort is the CI-sized matrix (every
// family at a reduced world size), TierFull the developer-sized one.
// `go test ./internal/scenario` runs short under -short and full
// otherwise; `experiments -scenarios` runs either on demand.
package scenario

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgpsim"
	"hybridrel/internal/core"
	"hybridrel/internal/gen"
	"hybridrel/internal/infer"
	"hybridrel/internal/intern"
	"hybridrel/internal/pipeline"
	"hybridrel/internal/report"
	"hybridrel/internal/testutil"
)

// Tier selects the matrix scale.
type Tier int

// Matrix tiers.
const (
	// TierShort is the CI matrix: every family at a reduced world size.
	TierShort Tier = iota
	// TierFull is the developer matrix: every family at small-world
	// scale (the size the golden tests pin).
	TierFull
	// Tier10k is the Internet-scale matrix: every family at 10 000
	// ASes, the size the mmap-serving and parallel-generation work is
	// gated on. Run via `experiments -scenarios -tier 10k` or the
	// HYBRIDREL_SCENARIO_10K-gated test.
	Tier10k
)

// String returns "short", "full" or "10k".
func (t Tier) String() string {
	switch t {
	case TierFull:
		return "full"
	case Tier10k:
		return "10k"
	}
	return "short"
}

// Scenario is one named topology regime of the validation matrix.
type Scenario struct {
	// Name is the stable identifier used in reports and test names.
	Name string
	// Desc is the one-line catalogue description.
	Desc string
	// Collectors is the number of vantage collectors dumping archives.
	Collectors int
	// Short / Full / Big are the per-tier generator configurations.
	Short, Full, Big gen.Config
	// MinAccuracy / MinHybridPrecision are the regression floors the
	// matrix test asserts for this regime: per-plane accuracy of the
	// classified links, and precision of the detected hybrids against
	// the planted ones. Adversarial regimes declare lower floors; the
	// measured values are always reported either way.
	MinAccuracy        float64
	MinHybridPrecision float64
	// Churn is the number of withdraw/re-announce flap events in the
	// live-ingest feed the live-batch equivalence invariant replays.
	Churn int
	// FlapBias steers the feed's churn toward routes crossing the
	// planted hybrid links, so hybrids are repeatedly withdrawn and
	// re-announced before the equivalence check.
	FlapBias bool
}

// Config returns the generator configuration for a tier.
func (sc Scenario) Config(tier Tier) gen.Config {
	switch tier {
	case TierFull:
		return sc.Full
	case Tier10k:
		return sc.Big
	}
	return sc.Short
}

// shortConfig is the CI-scale base: the SmallConfig structure at
// roughly half the size, fast enough to run every family under -race
// in seconds.
func shortConfig() gen.Config {
	c := gen.SmallConfig()
	c.NumASes = 340
	c.NumTier1 = 5
	c.V6OnlyPeerings = 70
	c.NumNoiseLeakers = 3
	c.HubPeerings = 10
	c.NumVantages = 16
	return c
}

// bigConfig is the Internet-scale base: the DefaultConfig structure at
// 10 000 ASes with a trimmed vantage set, sized so the whole family
// matrix stays minutes, not hours, while the link counts stress the
// same code paths the 100k scale generator does.
func bigConfig() gen.Config {
	c := gen.DefaultConfig()
	c.NumASes = 10_000
	c.NumTier1 = 8
	c.V6OnlyPeerings = 2000
	c.HubPeerings = 40
	c.NumVantages = 32
	return c
}

// family assembles one scenario: mutate edits the short and full base
// configurations identically, seed keeps the families' worlds distinct.
func family(name, desc string, seed int64, collectors int, mutate func(*gen.Config)) Scenario {
	sc := Scenario{
		Name:               name,
		Desc:               desc,
		Collectors:         collectors,
		Short:              shortConfig(),
		Full:               gen.SmallConfig(),
		Big:                bigConfig(),
		MinAccuracy:        0.80,
		MinHybridPrecision: 0.80,
		Churn:              160,
	}
	sc.Short.Seed = seed
	sc.Full.Seed = seed
	sc.Big.Seed = seed
	if mutate != nil {
		mutate(&sc.Short)
		mutate(&sc.Full)
		mutate(&sc.Big)
	}
	return sc
}

// Matrix returns the scenario catalogue, one entry per topology regime
// the paper's methodology must survive. Every entry is deterministic:
// same tier, same result.
func Matrix() []Scenario {
	return []Scenario{
		family("baseline",
			"the canonical 2010 mix the golden tests pin", 42, 2, nil),
		family("dualstack-mature",
			"late-transition Internet: v6 everywhere, dual-stack sessions the norm, few hybrids", 1009, 2,
			func(c *gen.Config) {
				c.V6TransitProb = 0.95
				c.V6StubProb = 0.55
				c.DualStackLinkProb = 0.95
				c.HybridFraction = 0.08
			}),
		family("tunnel-heavy",
			"early transition: sparse v6 enablement, most v6 reach over tunnel transit", 1013, 2,
			func(c *gen.Config) {
				c.V6TransitProb = 0.35
				c.V6StubProb = 0.05
				c.DualStackLinkProb = 0.35
				c.V6OnlyPeerings /= 2
				c.HybridFraction = 0.18
			}),
		family("peering-dense",
			"IXP-rich topology: dense stub and transit peering meshes in both planes", 1019, 2,
			func(c *gen.Config) {
				c.StubPeerProb = 0.35
				c.TransitPeerAvg = 5.5
				c.V6OnlyPeerings *= 3
				c.HubPeerings *= 2
			}),
		family("leak-valley",
			"route-leak injection: many scoped leaks and relaxers planting valley paths", 1021, 2,
			func(c *gen.Config) {
				c.NumNoiseLeakers *= 10
				c.NumRelaxers += 2
				c.TEProb = 0.10
			}),
		family("sparse-collectors",
			"thin visibility: one collector, few vantages, little LocPrf calibration data", 1031, 1,
			func(c *gen.Config) {
				c.NumVantages = 6
				c.VantageLocPrfFrac = 0.2
			}),
		churnHeavy(),
		dark(),
	}
}

// churnHeavy is the live-ingest stress family: a tunnel-rich topology
// whose feed flaps heavily, with the churn biased toward routes
// crossing the planted hybrid links — every hybrid is withdrawn and
// re-announced repeatedly before the live-batch equivalence check and
// the ground-truth grading run.
func churnHeavy() Scenario {
	sc := family("churn-heavy",
		"flapping tunnels: hybrid-crossing routes withdrawn and re-announced throughout the feed", 1039, 2,
		func(c *gen.Config) {
			c.V6TransitProb = 0.55
			c.DualStackLinkProb = 0.55
			c.HybridFraction = 0.20
		})
	sc.Churn = 600
	sc.FlapBias = true
	return sc
}

// dark is the adversarial-communities family: the signal the paper
// mines is deliberately degraded, so its regression floors are lower —
// the scenario measures how gracefully inference decays, not that it
// stays perfect.
func dark() Scenario {
	sc := family("dark-communities",
		"adversarial communities: low adoption, heavy scrubbing, an undocumented IRR", 1033, 2,
		func(c *gen.Config) {
			c.CommunityAdoptTransit = 0.45
			c.CommunityAdoptStub = 0.10
			c.CommunityStripProb = 0.50
			c.IRRDocumentedProb = 0.40
			c.TEProb = 0.15
		})
	sc.MinAccuracy = 0.70
	sc.MinHybridPrecision = 0.55
	return sc
}

// Find returns the named scenario from the matrix.
func Find(name string) (Scenario, error) {
	for _, sc := range Matrix() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown scenario %q", name)
}

// Options tunes a matrix run.
type Options struct {
	// Tier selects the per-scenario world size (default TierShort).
	Tier Tier
	// Parallelism is the worker count of the concurrent pipeline run
	// the differential invariant compares against the sequential one.
	// Values < 2 (including the "0 = all cores" convention of the
	// -parallel flags) resolve to all cores, floored at 2 — a
	// one-worker run would compare the sequential path against itself
	// and the invariant would be vacuous.
	Parallelism int
}

func (o Options) parallelism() int {
	if o.Parallelism >= 2 {
		return o.Parallelism
	}
	if n := runtime.NumCPU(); n > 2 {
		return n
	}
	return 2
}

// ClassReport is one relationship class's precision/recall against the
// planted truth, in the canonical Lo→Hi orientation.
type ClassReport struct {
	Class     string  `json:"class"`
	Truth     int     `json:"truth"`
	TP        int     `json:"tp"`
	FP        int     `json:"fp"`
	FN        int     `json:"fn"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
}

// PlaneReport grades one address family's recovered relationships over
// every observed link of that plane.
type PlaneReport struct {
	Plane      string        `json:"plane"`
	Links      int           `json:"links"`
	Graded     int           `json:"graded"`
	Classified int           `json:"classified"`
	Correct    int           `json:"correct"`
	Coverage   float64       `json:"coverage"`
	Accuracy   float64       `json:"accuracy"`
	Classes    []ClassReport `json:"classes"`
}

// HybridReport grades hybrid detection against the planted hybrids.
type HybridReport struct {
	// Planted is the generator's hybrid count; PlantedObserved the
	// subset whose link was observed in both planes (the detectable
	// population).
	Planted         int `json:"planted"`
	PlantedObserved int `json:"planted_observed"`
	// Detected is the analysis's hybrid count; Matched the detected
	// hybrids that are planted ones.
	Detected  int     `json:"detected"`
	Matched   int     `json:"matched"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
}

// InvariantResult is one differential invariant's verdict.
type InvariantResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Result is one scenario's full report card.
type Result struct {
	Name       string            `json:"name"`
	Desc       string            `json:"desc"`
	Tier       string            `json:"tier"`
	Collectors int               `json:"collectors"`
	ASes       int               `json:"ases"`
	V6ASes     int               `json:"v6_ases"`
	DualStack  int               `json:"dual_stack_links"`
	ElapsedMS  int64             `json:"elapsed_ms"`
	Planes     []PlaneReport     `json:"planes"`
	Hybrids    HybridReport      `json:"hybrids"`
	Invariants []InvariantResult `json:"invariants"`
}

// InvariantsOK reports whether every differential invariant held.
func (r *Result) InvariantsOK() bool {
	for _, inv := range r.Invariants {
		if !inv.OK {
			return false
		}
	}
	return true
}

// Run executes one scenario end to end: generate the world, collect it
// into archive bytes, run the production pipeline, check the
// differential invariant suite, and grade the recovered relationships
// against the planted truth. Failed invariants are reported in the
// Result, not as an error; an error means the scenario could not run
// at all.
func Run(ctx context.Context, sc Scenario, opt Options) (*Result, error) {
	cfg := sc.Config(opt.Tier)
	start := time.Now()
	in, err := gen.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	arch, err := testutil.Collect(in, sc.Collectors)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	src := sources(arch)
	// The sequential run is the reference every differential invariant
	// compares against; it is also the one graded below.
	a, err := core.RunPipeline(ctx, src, pipeline.WithParallelism(1))
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}

	res := &Result{
		Name:       sc.Name,
		Desc:       sc.Desc,
		Tier:       opt.Tier.String(),
		Collectors: sc.Collectors,
		ASes:       len(in.Order),
		V6ASes:     in.Graph6.NumNodes(),
		DualStack:  a.Coverage().DualStack,
	}
	// The live-batch equivalence invariant replays the same world as a
	// churning update stream; FlapBias steers the flaps onto the
	// planted hybrid links.
	feedCfg := bgpsim.FeedConfig{Seed: cfg.Seed ^ 0x1ee7, ChurnEvents: sc.Churn}
	if sc.FlapBias {
		for _, h := range in.Hybrids {
			feedCfg.Bias = append(feedCfg.Bias, h.Key)
		}
	}
	res.Invariants = checkInvariants(ctx, src, in, feedCfg, a, opt.parallelism())

	res.Planes = []PlaneReport{
		gradePlane("ipv4", a.Rel4, in.Truth4, a.D4.Links()),
		gradePlane("ipv6", a.Rel6, in.Truth6, a.D6.Links()),
	}
	res.Hybrids = gradeHybrids(in, a)
	res.ElapsedMS = time.Since(start).Milliseconds()
	return res, nil
}

// RunMatrix runs every scenario in order, stopping on the first
// infrastructure error.
func RunMatrix(ctx context.Context, scs []Scenario, opt Options) ([]*Result, error) {
	out := make([]*Result, 0, len(scs))
	for _, sc := range scs {
		r, err := Run(ctx, sc, opt)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// sources wraps collected archive bytes as reusable pipeline sources.
func sources(arch *testutil.Archives) pipeline.Sources {
	var src pipeline.Sources
	for i, b := range arch.MRT4 {
		src.MRT4 = append(src.MRT4, pipeline.Bytes(fmt.Sprintf("ipv4/collector%02d", i), b))
	}
	for i, b := range arch.MRT6 {
		src.MRT6 = append(src.MRT6, pipeline.Bytes(fmt.Sprintf("ipv6/collector%02d", i), b))
	}
	src.IRR = pipeline.Bytes("irr", arch.IRR)
	return src
}

// gradeClasses is the fixed reporting order of relationship classes.
var gradeClasses = []asrel.Rel{asrel.P2C, asrel.C2P, asrel.P2P, asrel.S2S}

func gradePlane(plane string, inferred *intern.Table, truth *asrel.Table, links []asrel.LinkKey) PlaneReport {
	s := infer.ScoreTable(inferred, truth, links)
	pr := PlaneReport{
		Plane:      plane,
		Links:      len(links),
		Graded:     s.Total,
		Classified: s.Classified,
		Correct:    s.Correct,
		Coverage:   s.Coverage(),
		Accuracy:   s.Accuracy(),
	}
	for _, r := range gradeClasses {
		c := s.Class(r)
		if c == (infer.ClassCount{}) {
			continue
		}
		pr.Classes = append(pr.Classes, ClassReport{
			Class:     r.String(),
			Truth:     c.Truth(),
			TP:        c.TP,
			FP:        c.FP,
			FN:        c.FN,
			Precision: c.Precision(),
			Recall:    c.Recall(),
		})
	}
	return pr
}

func gradeHybrids(in *gen.Internet, a *core.Analysis) HybridReport {
	planted := make(map[asrel.LinkKey]bool, len(in.Hybrids))
	h := HybridReport{Planted: len(in.Hybrids)}
	for _, p := range in.Hybrids {
		planted[p.Key] = true
		if a.D4.HasLink(p.Key) && a.D6.HasLink(p.Key) {
			h.PlantedObserved++
		}
	}
	for _, d := range a.Hybrids() {
		h.Detected++
		if planted[d.Key] {
			h.Matched++
		}
	}
	if h.Detected > 0 {
		h.Precision = float64(h.Matched) / float64(h.Detected)
	}
	if h.PlantedObserved > 0 {
		h.Recall = float64(h.Matched) / float64(h.PlantedObserved)
	}
	return h
}

// WriteTable renders matrix results as the experiments-style tables:
// one summary row per scenario, then a per-plane class breakdown.
func WriteTable(w io.Writer, rs []*Result) error {
	sum := report.NewTable("scenario matrix — summary",
		"scenario", "tier", "ASes", "dual", "hybrid P/R", "invariants", "ms")
	for _, r := range rs {
		inv := "ok"
		for _, i := range r.Invariants {
			if !i.OK {
				inv = "FAIL " + i.Name
				break
			}
		}
		sum.Row(r.Name, r.Tier, r.ASes, r.DualStack,
			fmt.Sprintf("%s/%s", report.Pct(r.Hybrids.Precision), report.Pct(r.Hybrids.Recall)),
			inv, r.ElapsedMS)
	}
	if err := sum.Write(w); err != nil {
		return err
	}
	cls := report.NewTable("scenario matrix — per-plane class precision/recall",
		"scenario", "plane", "coverage", "accuracy", "class", "truth", "precision", "recall")
	for _, r := range rs {
		for _, p := range r.Planes {
			for _, c := range p.Classes {
				cls.Row(r.Name, p.Plane, report.Pct(p.Coverage), report.Pct(p.Accuracy),
					c.Class, c.Truth, report.Pct(c.Precision), report.Pct(c.Recall))
			}
		}
	}
	return cls.Write(w)
}
