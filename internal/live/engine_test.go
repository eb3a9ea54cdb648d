package live_test

import (
	"bytes"
	"math"
	"testing"
	"time"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
	"hybridrel/internal/bgpsim"
	"hybridrel/internal/community"
	"hybridrel/internal/live"
	"hybridrel/internal/scenario"
)

// feedRoute is what the engine tests need to know of one feed route.
type feedRoute struct {
	i        int
	af       asrel.AF
	vantage  asrel.ASN
	eligible bool // carries LocPrf and has a first hop
	te       bool // carries a TE community
}

func feedRoutes(t testing.TB, feed *bgpsim.Feed, dict *community.Dictionary) []feedRoute {
	t.Helper()
	var u bgp.Update
	out := make([]feedRoute, feed.NumRoutes())
	for i := range out {
		ev := feed.Announce(i)
		if err := bgp.ParseUpdate(ev.Data, bgp.Options{ASN4: true}, &u); err != nil {
			t.Fatal(err)
		}
		path := u.Attrs.EffectivePath().AppendFlatten(nil)
		r := feedRoute{i: i, af: ev.AF, vantage: ev.Vantage, eligible: u.Attrs.HasLocalPref && len(path) >= 2}
		for _, c := range u.Attrs.Communities {
			if m, ok := dict.Lookup(c); ok && m == community.MeaningTE {
				r.te = true
			}
		}
		out[i] = r
	}
	return out
}

// busiestVantage returns the (plane, vantage) with the most eligible
// routes, and those routes.
func busiestVantage(routes []feedRoute) (asrel.AF, asrel.ASN, []feedRoute) {
	type pv struct {
		af asrel.AF
		v  asrel.ASN
	}
	by := make(map[pv][]feedRoute)
	var best pv
	for _, r := range routes {
		if !r.eligible {
			continue
		}
		k := pv{r.af, r.vantage}
		by[k] = append(by[k], r)
		if len(by[k]) > len(by[best]) {
			best = k
		}
	}
	return best.af, best.v, by[best]
}

// TestVantageEvidenceRebuilt withdraws every eligible route of one
// vantage — its counted LocPrf evidence must disappear — then flaps
// TE-tagged routes and brings the vantage's routes back. After every
// step the incremental snapshot must equal a from-scratch recompute of
// the same routes.
func TestVantageEvidenceRebuilt(t *testing.T) {
	in, dict := buildWorld(t, liveConfig(2024))
	feed, err := bgpsim.GenerateFeed(in, bgpsim.FeedConfig{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	routes := feedRoutes(t, feed, dict)
	af, v, mine := busiestVantage(routes)
	var te []feedRoute
	for _, r := range routes {
		if r.eligible && r.te && len(te) < 6 {
			te = append(te, r)
		}
	}
	if len(te) == 0 {
		t.Fatal("world has no TE-tagged eligible routes")
	}

	ap := applyFeed(t, feed, live.Config{Dict: dict, DirtyThreshold: 0.9})
	shadow := applyFeed(t, feed, live.Config{Dict: dict})
	apply := func(ev bgpsim.FeedEvent) {
		t.Helper()
		for _, a := range []*live.Applier{ap, shadow} {
			if err := a.Apply(live.Event{Vantage: ev.Vantage, Data: ev.Data}); err != nil {
				t.Fatal(err)
			}
		}
	}
	step := 0
	check := func(what string) {
		t.Helper()
		step++
		got := snapBytes(t, ap.Snapshot())
		shadow.Recompute()
		if want := snapBytes(t, shadow.Snapshot()); !bytes.Equal(got, want) {
			t.Fatalf("step %d (%s): incremental snapshot differs from a full recompute", step, what)
		}
	}
	check("converged")
	inc0, _ := ap.Resolves()
	if has, votes := ap.LocPrfState(af, v); !has || votes == 0 {
		t.Fatalf("%s vantage %s never calibrated (evidence %v, %d votes)", af, v, has, votes)
	}

	// Withdraw the vantage's eligible routes in a few batches.
	for k, r := range mine {
		apply(feed.Withdraw(r.i))
		if k%(len(mine)/3+1) == 0 {
			check("withdrawing")
		}
	}
	check("vantage withdrawn")
	if has, votes := ap.LocPrfState(af, v); has || votes != 0 {
		t.Fatalf("evidence survives the vantage's last eligible route (evidence %v, %d votes)", has, votes)
	}

	// Flap TE-tagged routes: filtered from calibration, but folded in
	// and out of the TE count.
	for _, r := range te {
		apply(feed.Withdraw(r.i))
		check("TE withdrawn")
		apply(feed.Announce(r.i))
		check("TE re-announced")
	}

	for k, r := range mine {
		apply(feed.Announce(r.i))
		if k%(len(mine)/3+1) == 0 {
			check("re-announcing")
		}
	}
	check("vantage back")
	if has, votes := ap.LocPrfState(af, v); !has || votes == 0 {
		t.Fatalf("evidence not rebuilt (evidence %v, %d votes)", has, votes)
	}
	if inc, _ := ap.Resolves(); inc == inc0 {
		t.Error("no step took the incremental path")
	}
}

// TestResolveAllocsAfterFlap pins the cost of an incremental resolve:
// after one route of the busiest vantage flaps, bringing the tables up
// to date allocates a small fixed amount — recalibrating the vantage
// reads its (neighbor, LocPrf) buckets, never its paths. A return to
// per-path rescans allocates at least once per path and fails here.
func TestResolveAllocsAfterFlap(t *testing.T) {
	sc, err := scenario.Find("baseline")
	if err != nil {
		t.Fatal(err)
	}
	in, dict := buildWorld(t, sc.Config(scenario.TierShort))
	feed, err := bgpsim.GenerateFeed(in, bgpsim.FeedConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, v, mine := busiestVantage(feedRoutes(t, feed, dict))
	const bound = 64
	if len(mine) < 4*bound {
		t.Fatalf("vantage %s has only %d eligible routes; the guard needs a vantage far above %d", v, len(mine), bound)
	}

	ap := applyFeed(t, feed, live.Config{Dict: dict, DirtyThreshold: -1})
	ap.Resolve()
	inc0, _ := ap.Resolves()
	r := mine[len(mine)/2]
	events := []bgpsim.FeedEvent{feed.Withdraw(r.i), feed.Announce(r.i)}
	allocs := testing.AllocsPerRun(20, func() {
		for _, ev := range events {
			if err := ap.Apply(live.Event{Vantage: ev.Vantage, Data: ev.Data}); err != nil {
				t.Fatal(err)
			}
		}
		ap.Resolve()
	})
	if inc, _ := ap.Resolves(); inc == inc0 {
		t.Fatal("flap never took the incremental path")
	}
	t.Logf("flap + resolve: %.0f allocs; vantage %s has %d eligible routes", allocs, v, len(mine))
	if allocs > bound {
		t.Errorf("flap + resolve allocates %.0f times, bound %d (vantage has %d eligible routes)", allocs, bound, len(mine))
	}
}

// liveMinSpeedup is how much faster an incremental resolve after a
// small flap must be than a full recompute of the same state.
const liveMinSpeedup = 5.0

// TestIncrementalResolveBeatsRecompute holds the incremental path to
// its reason to exist. Two appliers converge on the tunnel-heavy world
// at the default dirty threshold; each round flaps the same two IPv4
// routes on both (withdraw, re-announce) and brings one up to date
// with Resolve, the other with Recompute. Rounds alternate the two so
// drift on the host lands on both, and each side keeps its fastest
// round. Every timed Resolve must take the incremental path, and be at
// least liveMinSpeedup times faster than the recompute.
func TestIncrementalResolveBeatsRecompute(t *testing.T) {
	sc, err := scenario.Find("tunnel-heavy")
	if err != nil {
		t.Fatal(err)
	}
	in, dict := buildWorld(t, sc.Config(scenario.TierShort))
	feed, err := bgpsim.GenerateFeed(in, bgpsim.FeedConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var flaps []bgpsim.FeedEvent
	for i := 0; i < feed.NumRoutes() && len(flaps) < 4; i++ {
		if feed.Announce(i).AF == asrel.IPv4 {
			flaps = append(flaps, feed.Withdraw(i), feed.Announce(i))
		}
	}
	cfg := live.Config{Dict: dict, DirtyThreshold: -1}
	inc, full := applyFeed(t, feed, cfg), applyFeed(t, feed, cfg)
	inc.Resolve()
	full.Resolve()
	timeFlap := func(ap *live.Applier, bringUp func()) time.Duration {
		start := time.Now()
		for _, ev := range flaps {
			if err := ap.Apply(live.Event{Vantage: ev.Vantage, Data: ev.Data}); err != nil {
				t.Fatal(err)
			}
		}
		bringUp()
		return time.Since(start)
	}

	const rounds = 15
	inc0, full0 := inc.Resolves()
	bestInc, bestFull := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		bestInc = min(bestInc, timeFlap(inc, inc.Resolve))
		bestFull = min(bestFull, timeFlap(full, full.Recompute))
	}
	if i, f := inc.Resolves(); i-inc0 != rounds || f != full0 {
		t.Fatalf("%d flaps took the incremental path %d times and recomputed %d times; want every one incremental",
			rounds, i-inc0, f-full0)
	}
	speedup := float64(bestFull) / float64(bestInc)
	t.Logf("flap + Resolve %v, flap + Recompute %v (%.0fx)", bestInc, bestFull, speedup)
	if speedup < liveMinSpeedup {
		t.Errorf("incremental resolve is only %.1fx faster than a full recompute (%v vs %v); want at least %.0fx",
			speedup, bestInc, bestFull, liveMinSpeedup)
	}
}
