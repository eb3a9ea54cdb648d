package scenario

// The scenario matrix is itself the test: every family must run the
// full production path, hold every differential invariant, and grade
// inference against the planted truth above a per-regime floor. Run
// with -short for the CI tier; the default run takes the full tier.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"hybridrel/internal/asrel"
)

func matrixTier(t *testing.T) Tier {
	t.Helper()
	if testing.Short() {
		return TierShort
	}
	return TierFull
}

func TestMatrixCatalogue(t *testing.T) {
	scs := Matrix()
	if len(scs) < 6 {
		t.Fatalf("matrix has %d families, want >= 6", len(scs))
	}
	seen := map[string]bool{}
	for _, sc := range scs {
		if sc.Name == "" || sc.Desc == "" {
			t.Errorf("scenario %+v missing name or description", sc)
		}
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Collectors < 1 {
			t.Errorf("%s: no collectors", sc.Name)
		}
		if sc.Short.NumASes >= sc.Full.NumASes {
			t.Errorf("%s: short tier (%d ASes) is not smaller than full (%d)",
				sc.Name, sc.Short.NumASes, sc.Full.NumASes)
		}
		if sc.Big.NumASes < 10_000 {
			t.Errorf("%s: 10k tier has only %d ASes", sc.Name, sc.Big.NumASes)
		}
	}
	if _, err := Find("baseline"); err != nil {
		t.Errorf("Find(baseline): %v", err)
	}
	if _, err := Find("no-such-scenario"); err == nil {
		t.Error("Find of an unknown scenario succeeded")
	}
}

// TestScenarioMatrix runs every family end to end — generator through
// serving — asserting the differential invariant suite and grading
// floors per scenario.
func TestScenarioMatrix(t *testing.T) {
	opt := Options{Tier: matrixTier(t)}
	for _, sc := range Matrix() {
		t.Run(sc.Name, func(t *testing.T) {
			r, err := Run(context.Background(), sc, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Invariants) != 5 {
				t.Fatalf("invariant suite ran %d checks, want 5", len(r.Invariants))
			}
			names := make(map[string]bool, len(r.Invariants))
			for _, inv := range r.Invariants {
				names[inv.Name] = true
			}
			for _, want := range []string{InvParallelism, InvRoundTrip, InvServe, InvLive, InvChangeStream} {
				if !names[want] {
					t.Errorf("invariant %s missing from the suite", want)
				}
			}
			for _, inv := range r.Invariants {
				if !inv.OK {
					t.Errorf("invariant %s failed: %s", inv.Name, inv.Detail)
				}
			}

			// Structural sanity of the graded world: the pipeline must
			// observe a real topology in both planes.
			if r.ASes == 0 || r.V6ASes == 0 {
				t.Fatalf("degenerate world: %d ASes, %d v6 ASes", r.ASes, r.V6ASes)
			}
			if len(r.Planes) != 2 || r.Planes[0].Plane != "ipv4" || r.Planes[1].Plane != "ipv6" {
				t.Fatalf("planes = %+v", r.Planes)
			}
			for _, p := range r.Planes {
				if p.Links == 0 || p.Graded == 0 {
					t.Errorf("%s: empty plane (%d links, %d graded)", p.Plane, p.Links, p.Graded)
				}
				// Every observed link of a synthetic world has planted truth.
				if p.Graded != p.Links {
					t.Errorf("%s: graded %d of %d links; synthetic truth must cover all",
						p.Plane, p.Graded, p.Links)
				}
				// Classified must be non-zero in every regime — a
				// total classification collapse would otherwise slip
				// past the accuracy floor vacuously.
				if p.Classified == 0 {
					t.Errorf("%s: inference classified nothing", p.Plane)
				}
				if p.Accuracy < sc.MinAccuracy {
					t.Errorf("%s: accuracy %.2f below the scenario floor %.2f",
						p.Plane, p.Accuracy, sc.MinAccuracy)
				}
				if len(p.Classes) == 0 {
					t.Errorf("%s: no per-class breakdown", p.Plane)
				}
				for _, c := range p.Classes {
					if c.TP+c.FN != c.Truth {
						t.Errorf("%s/%s: inconsistent tally %+v", p.Plane, c.Class, c)
					}
				}
			}

			// Whatever the regime, what the pipeline does classify must
			// be overwhelmingly the planted relationship; detected
			// hybrids must be dominated by planted ones. A detection
			// collapse (observable hybrids, none detected) fails
			// outright rather than skipping the precision floor.
			if r.Hybrids.Planted > 0 && r.Hybrids.PlantedObserved == 0 {
				t.Errorf("no planted hybrid was observable: %+v", r.Hybrids)
			}
			if r.Hybrids.PlantedObserved > 0 && r.Hybrids.Detected == 0 {
				t.Errorf("hybrid detection collapsed: %+v", r.Hybrids)
			}
			if r.Hybrids.Detected > 0 && r.Hybrids.Precision < sc.MinHybridPrecision {
				t.Errorf("hybrid precision %.2f below the scenario floor %.2f (%+v)",
					r.Hybrids.Precision, sc.MinHybridPrecision, r.Hybrids)
			}
			t.Logf("%s: %d ASes, hybrids %d/%d matched (P %.2f R %.2f), v6 accuracy %.2f",
				r.Name, r.ASes, r.Hybrids.Matched, r.Hybrids.Detected,
				r.Hybrids.Precision, r.Hybrids.Recall, r.Planes[1].Accuracy)
		})
	}
}

// TestScenarioMatrix10k runs the full six-invariant matrix at the
// Internet-scale 10k tier. It takes minutes, so it only runs when
// HYBRIDREL_SCENARIO_10K is set (the acceptance gate for scale work);
// plain `go test` skips it.
func TestScenarioMatrix10k(t *testing.T) {
	if os.Getenv("HYBRIDREL_SCENARIO_10K") == "" {
		t.Skip("set HYBRIDREL_SCENARIO_10K=1 to run the 10k-tier matrix")
	}
	opt := Options{Tier: Tier10k}
	for _, sc := range Matrix() {
		t.Run(sc.Name, func(t *testing.T) {
			r, err := Run(context.Background(), sc, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Invariants) != 5 {
				t.Fatalf("invariant suite ran %d checks, want 5", len(r.Invariants))
			}
			for _, inv := range r.Invariants {
				if !inv.OK {
					t.Errorf("invariant %s failed: %s", inv.Name, inv.Detail)
				}
			}
			if r.ASes < 10_000 {
				t.Fatalf("10k tier world has %d ASes", r.ASes)
			}
			for _, p := range r.Planes {
				if p.Accuracy < sc.MinAccuracy {
					t.Errorf("%s: accuracy %.2f below the scenario floor %.2f",
						p.Plane, p.Accuracy, sc.MinAccuracy)
				}
			}
			if r.Hybrids.Detected > 0 && r.Hybrids.Precision < sc.MinHybridPrecision {
				t.Errorf("hybrid precision %.2f below the scenario floor %.2f",
					r.Hybrids.Precision, sc.MinHybridPrecision)
			}
			t.Logf("%s: %d ASes, %d dual-stack, hybrids %d/%d (P %.2f), %dms",
				r.Name, r.ASes, r.DualStack, r.Hybrids.Matched, r.Hybrids.Detected,
				r.Hybrids.Precision, r.ElapsedMS)
		})
	}
}

// TestScenarioRegimesDiffer pins that the matrix actually spans
// distinct topology regimes rather than reskinning one world: the
// tunnel-heavy family must show more v6-only transit than baseline,
// the peering-dense family more peering links, the sparse family fewer
// vantage paths.
func TestScenarioRegimesDiffer(t *testing.T) {
	opt := Options{Tier: TierShort}
	run := func(name string) *Result {
		sc, err := Find(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(context.Background(), sc, opt)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := run("baseline")
	tunnel := run("tunnel-heavy")
	dense := run("peering-dense")
	mature := run("dualstack-mature")

	if tunnel.DualStack >= base.DualStack {
		t.Errorf("tunnel-heavy should observe fewer dual-stack links: %d vs baseline %d",
			tunnel.DualStack, base.DualStack)
	}
	if mature.DualStack <= base.DualStack {
		t.Errorf("dualstack-mature should observe more dual-stack links: %d vs baseline %d",
			mature.DualStack, base.DualStack)
	}
	peers := func(r *Result) int {
		for _, c := range r.Planes[0].Classes {
			if c.Class == asrel.P2P.String() {
				return c.Truth
			}
		}
		return 0
	}
	if peers(dense) <= peers(base) {
		t.Errorf("peering-dense should carry more p2p truth links: %d vs baseline %d",
			peers(dense), peers(base))
	}
}

// TestResultJSONRoundTrips pins the machine-readable shape the
// experiments -scenarios -json flag emits.
func TestResultJSONRoundTrips(t *testing.T) {
	sc, err := Find("baseline")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), sc, Options{Tier: TierShort})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != r.Name || len(back.Planes) != len(r.Planes) ||
		back.Hybrids != r.Hybrids || len(back.Invariants) != len(r.Invariants) {
		t.Errorf("JSON round trip lost data:\nwant %+v\ngot  %+v", r, back)
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, []*Result{r}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("baseline")) {
		t.Error("table output missing the scenario row")
	}
}
