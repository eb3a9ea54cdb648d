package live_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/netip"
	"testing"
	"time"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
	"hybridrel/internal/bgpsim"
	"hybridrel/internal/collector"
	"hybridrel/internal/community"
	"hybridrel/internal/core"
	"hybridrel/internal/dataset"
	"hybridrel/internal/gen"
	"hybridrel/internal/live"
	"hybridrel/internal/mrt"
	"hybridrel/internal/obs"
	"hybridrel/internal/pipeline"
	"hybridrel/internal/rpsl"
	"hybridrel/internal/snapshot"
	"hybridrel/internal/testutil"
)

// liveConfig is a compact world: big enough for both inference methods
// to fire and for hybrids to exist, small enough for -race CI.
func liveConfig(seed int64) gen.Config {
	cfg := gen.DefaultConfig()
	cfg.Seed = seed
	cfg.NumASes = 160
	cfg.NumTier1 = 4
	cfg.V6OnlyPeerings = 30
	cfg.NumNoiseLeakers = 2
	cfg.HubPeerings = 6
	cfg.NumVantages = 10
	return cfg
}

func buildWorld(t testing.TB, cfg gen.Config) (*gen.Internet, *community.Dictionary) {
	t.Helper()
	in, err := gen.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var irr bytes.Buffer
	if err := in.WriteIRR(&irr); err != nil {
		t.Fatal(err)
	}
	objs, _, err := rpsl.Parse(&irr)
	if err != nil {
		t.Fatal(err)
	}
	return in, community.FromIRR(objs)
}

// applyFeed runs every feed event through a fresh applier.
func applyFeed(t testing.TB, feed *bgpsim.Feed, cfg live.Config) *live.Applier {
	t.Helper()
	ap := live.NewApplier(cfg)
	for _, ev := range feed.Events {
		if err := ap.Apply(live.Event{Vantage: ev.Vantage, Data: ev.Data}); err != nil {
			t.Fatal(err)
		}
	}
	return ap
}

func snapBytes(t testing.TB, s *snapshot.Snapshot) []byte {
	t.Helper()
	b, err := snapshot.Bytes(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// batchBytes runs the batch pipeline over archives and encodes the
// resulting snapshot.
func batchBytes(t testing.TB, arch *testutil.Archives, parallelism int) []byte {
	t.Helper()
	src := pipeline.Sources{IRR: pipeline.Bytes("irr", arch.IRR)}
	for i, b := range arch.MRT4 {
		src.MRT4 = append(src.MRT4, pipeline.Bytes("mrt4", append([]byte(nil), b...)))
		_ = i
	}
	for _, b := range arch.MRT6 {
		src.MRT6 = append(src.MRT6, pipeline.Bytes("mrt6", append([]byte(nil), b...)))
	}
	a, err := core.RunPipeline(context.Background(), src, pipeline.WithParallelism(parallelism))
	if err != nil {
		t.Fatal(err)
	}
	return snapBytes(t, snapshot.Capture(a))
}

// TestLiveSmoke is the CI live-smoke gate: a seeded feed with well
// over a thousand updates including withdrawals, applied through the
// live subsystem, must produce a snapshot byte-identical to the batch
// pipeline ingesting the full archives — at parallelism 1 and N.
func TestLiveSmoke(t *testing.T) {
	in, dict := buildWorld(t, liveConfig(4711))
	feed, err := bgpsim.GenerateFeed(in, bgpsim.FeedConfig{Seed: 99, ChurnEvents: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(feed.Events) < 1000 {
		t.Fatalf("feed too small for the smoke gate: %d events", len(feed.Events))
	}
	withdrawals := 0
	for _, ev := range feed.Events {
		if ev.Withdraw {
			withdrawals++
		}
	}
	if withdrawals < 100 {
		t.Fatalf("feed carries only %d withdrawals", withdrawals)
	}
	if !feed.Converged() {
		t.Fatal("churn-only feed should converge to the full table")
	}

	ap := applyFeed(t, feed, live.Config{Dict: dict})
	liveBytes := snapBytes(t, ap.Snapshot())

	arch, err := testutil.Collect(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := batchBytes(t, arch, 1); !bytes.Equal(liveBytes, got) {
		t.Error("live snapshot differs from batch (parallelism 1)")
	}
	if got := batchBytes(t, arch, 4); !bytes.Equal(liveBytes, got) {
		t.Error("live snapshot differs from batch (parallelism 4)")
	}
}

// TestLiveResidualEquivalence leaves routes withdrawn at the end of
// the feed and checks the live snapshot against batch ingestion of
// archives filtered to exactly the surviving routes.
func TestLiveResidualEquivalence(t *testing.T) {
	in, dict := buildWorld(t, liveConfig(271828))
	feed, err := bgpsim.GenerateFeed(in, bgpsim.FeedConfig{Seed: 7, ChurnEvents: 250, Residual: 120})
	if err != nil {
		t.Fatal(err)
	}
	if feed.Converged() {
		t.Fatal("residual feed unexpectedly converged")
	}
	ap := applyFeed(t, feed, live.Config{Dict: dict})
	liveBytes := snapBytes(t, ap.Snapshot())

	// Batch reference: archives restricted to the feed's final state.
	cols := collector.Assign(in, 2)
	arch := &testutil.Archives{}
	var irr bytes.Buffer
	if err := in.WriteIRR(&irr); err != nil {
		t.Fatal(err)
	}
	arch.IRR = irr.Bytes()
	for _, af := range []asrel.AF{asrel.IPv4, asrel.IPv6} {
		bufs := make([]*bytes.Buffer, len(cols))
		ws := make([]io.Writer, len(cols))
		for i := range bufs {
			bufs[i] = &bytes.Buffer{}
			ws[i] = bufs[i]
		}
		if err := collector.DumpFiltered(in, af, cols, ws, testutil.DumpTime, feed.Keep(af)); err != nil {
			t.Fatal(err)
		}
		for _, b := range bufs {
			if af == asrel.IPv6 {
				arch.MRT6 = append(arch.MRT6, b.Bytes())
			} else {
				arch.MRT4 = append(arch.MRT4, b.Bytes())
			}
		}
	}
	if got := batchBytes(t, arch, 1); !bytes.Equal(liveBytes, got) {
		t.Error("residual live snapshot differs from filtered batch")
	}
}

// TestIncrementalMatchesFull drives churn through the incremental
// dirty-set path and cross-checks every intermediate snapshot against
// a forced full recompute of the same state.
func TestIncrementalMatchesFull(t *testing.T) {
	in, dict := buildWorld(t, liveConfig(1618))
	feed, err := bgpsim.GenerateFeed(in, bgpsim.FeedConfig{Seed: 3, ChurnEvents: 300})
	if err != nil {
		t.Fatal(err)
	}
	// Generous threshold keeps the per-step path incremental; the
	// shadow applier recomputes from scratch each time.
	ap := live.NewApplier(live.Config{Dict: dict, DirtyThreshold: 0.9})
	shadow := live.NewApplier(live.Config{Dict: dict})
	checkpoints := 0
	for i, ev := range feed.Events {
		e := live.Event{Vantage: ev.Vantage, Data: ev.Data}
		if err := ap.Apply(e); err != nil {
			t.Fatal(err)
		}
		if err := shadow.Apply(live.Event{Vantage: ev.Vantage, Data: ev.Data}); err != nil {
			t.Fatal(err)
		}
		// Snapshot at a hostile cadence through the churn tail.
		if i > len(feed.Events)-200 && i%37 == 0 {
			got := snapBytes(t, ap.Snapshot())
			shadow.Recompute()
			want := snapBytes(t, shadow.Snapshot())
			if !bytes.Equal(got, want) {
				t.Fatalf("incremental snapshot diverged at event %d", i)
			}
			checkpoints++
		}
	}
	if checkpoints == 0 {
		t.Fatal("no checkpoints exercised")
	}
	if inc, _ := ap.Resolves(); inc == 0 {
		t.Error("dirty-set path never taken; test exercised nothing")
	}
}

// TestDirtyThresholdFallback forces the full-recompute fallback with a
// tiny threshold and confirms results stay identical.
func TestDirtyThresholdFallback(t *testing.T) {
	in, dict := buildWorld(t, liveConfig(55))
	feed, err := bgpsim.GenerateFeed(in, bgpsim.FeedConfig{Seed: 5, ChurnEvents: 150})
	if err != nil {
		t.Fatal(err)
	}
	tiny := applyFeed(t, feed, live.Config{Dict: dict, DirtyThreshold: 1e-9})
	tinyBytes := snapBytes(t, tiny.Snapshot())
	if _, full := tiny.Resolves(); full == 0 {
		t.Error("tiny threshold never fell back to full recompute")
	}
	big := applyFeed(t, feed, live.Config{Dict: dict, DirtyThreshold: 0.99})
	if !bytes.Equal(tinyBytes, snapBytes(t, big.Snapshot())) {
		t.Error("threshold choice changed the snapshot")
	}
}

// TestIdenticalReannouncementRefcount is the regression test for the
// implicit-withdraw refcount leak: a route re-announced with an
// identical AS path used to skip the Release of the replaced RIB entry
// (old == idx), leaking one reference per flap, after which a real
// withdrawal could never deactivate the route. Flap a few routes with
// byte-identical re-announcements, withdraw them, and demand both
// refcount conservation and byte-equality with an applier that never
// saw the flaps.
func TestIdenticalReannouncementRefcount(t *testing.T) {
	in, dict := buildWorld(t, liveConfig(9091))
	feed, err := bgpsim.GenerateFeed(in, bgpsim.FeedConfig{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	apply := func(ap *live.Applier, ev bgpsim.FeedEvent) {
		t.Helper()
		if err := ap.Apply(live.Event{Vantage: ev.Vantage, Data: ev.Data}); err != nil {
			t.Fatal(err)
		}
	}

	flapped := applyFeed(t, feed, live.Config{Dict: dict})
	clean := applyFeed(t, feed, live.Config{Dict: dict})
	for _, i := range []int{0, 1, feed.NumRoutes() - 1} {
		for k := 0; k < 5; k++ {
			apply(flapped, feed.Announce(i)) // identical bytes every time
		}
		apply(flapped, feed.Withdraw(i))
		apply(clean, feed.Withdraw(i))
	}

	if refs, rib := flapped.D4.ActiveRefs()+flapped.D6.ActiveRefs(), flapped.RIBSize(); refs != rib {
		t.Errorf("refcount conservation violated after identical-path flaps: %d active references, %d RIB routes", refs, rib)
	}
	if !bytes.Equal(snapBytes(t, flapped.Snapshot()), snapBytes(t, clean.Snapshot())) {
		t.Error("withdrawn flapped routes still visible: flapped applier diverged from the never-flapped one")
	}
}

// TestRejectedReplacementWithdraws re-announces a held route with a
// path admission rejects — a loop, an AS_SET, an empty AS_PATH — and
// requires the live table to end as a batch ingest of a RIB dump
// holding only that replacement: the old route is gone from the RIB
// and the dataset, and the replacement is tallied as the same drop.
// The live applier also counted the original announcement, so its
// observation count must exceed the batch's by exactly that one.
func TestRejectedReplacementWithdraws(t *testing.T) {
	const vantage = 100
	pfx := netip.MustParsePrefix("10.1.0.0/16")
	route := func(path bgp.ASPath) bgp.Attrs {
		return bgp.Attrs{
			HasOrigin: true, Origin: bgp.OriginIGP,
			ASPath:  path,
			NextHop: netip.MustParseAddr("192.0.2.1"),
		}
	}
	update := func(path bgp.ASPath) live.Event {
		t.Helper()
		u := bgp.Update{Attrs: route(path), NLRI: []netip.Prefix{pfx}}
		b, err := u.Marshal(bgp.Options{ASN4: true})
		if err != nil {
			t.Fatal(err)
		}
		return live.Event{Vantage: vantage, Data: b}
	}
	for _, c := range []struct {
		name string
		path bgp.ASPath
	}{
		{"loop", bgp.Sequence(100, 200, 100, 300)},
		{"AS_SET", bgp.ASPath{
			{Type: bgp.SegSequence, ASNs: []asrel.ASN{100, 200}},
			{Type: bgp.SegSet, ASNs: []asrel.ASN{300, 400}},
		}},
		{"empty", bgp.ASPath{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ap := live.NewApplier(live.Config{Dict: community.NewDictionary()})
			for _, ev := range []live.Event{update(bgp.Sequence(100, 200, 300)), update(c.path)} {
				if err := ap.Apply(ev); err != nil {
					t.Fatal(err)
				}
			}

			var dump bytes.Buffer
			w := mrt.NewWriter(&dump)
			ts := time.Date(2010, 8, 1, 0, 0, 0, 0, time.UTC)
			peer := mrt.Peer{BGPID: netip.MustParseAddr("192.0.2.1"), Addr: netip.MustParseAddr("192.0.2.1"), ASN: vantage}
			if err := w.WritePeerIndexTable(ts, &mrt.PeerIndexTable{CollectorID: mrt.CollectorAddr(1), ViewName: "t", Peers: []mrt.Peer{peer}}); err != nil {
				t.Fatal(err)
			}
			if err := w.WriteRIB(ts, &mrt.RIB{Prefix: pfx, Entries: []mrt.RIBEntry{{OriginatedAt: ts, Attrs: route(c.path)}}}); err != nil {
				t.Fatal(err)
			}
			batch := dataset.New(asrel.IPv4)
			if err := batch.AddMRT(&dump); err != nil {
				t.Fatal(err)
			}

			d := ap.D4
			if ap.RIBSize() != batch.ActiveRefs() || d.ActiveRefs() != batch.ActiveRefs() {
				t.Errorf("RIB holds %d routes (%d references), batch retains %d", ap.RIBSize(), d.ActiveRefs(), batch.ActiveRefs())
			}
			if d.NumUniquePaths() != batch.NumUniquePaths() || d.NumLinks() != batch.NumLinks() {
				t.Errorf("live keeps %d paths and %d links, batch %d and %d",
					d.NumUniquePaths(), d.NumLinks(), batch.NumUniquePaths(), batch.NumLinks())
			}
			if got, want := d.NumObservations(), batch.NumObservations()+1; got != want {
				t.Errorf("live observations = %d, want %d (the original announcement and the replacement)", got, want)
			}
			ls, ll := d.Dropped()
			bs, bl := batch.Dropped()
			if ls != bs || ll != bl || bs+bl != 1 {
				t.Errorf("live drops = (%d sets, %d loops), batch (%d, %d); want equal, one drop", ls, ll, bs, bl)
			}
		})
	}
}

// TestRunnerAbsorbsGarbageEvents interleaves unparseable events with a
// real feed: the runner must drop them without dying, count every drop
// on Metrics.ParseErrors, log once per burst, and still converge to
// the snapshot a garbage-free run produces.
func TestRunnerAbsorbsGarbageEvents(t *testing.T) {
	in, dict := buildWorld(t, liveConfig(3434))
	feed, err := bgpsim.GenerateFeed(in, bgpsim.FeedConfig{Seed: 17, ChurnEvents: 60})
	if err != nil {
		t.Fatal(err)
	}
	garbage := [][]byte{
		[]byte("this is not a bgp message"),
		nil,
		bytes.Repeat([]byte{0xFF}, 21),
	}
	// A single bad event every ninth good one, plus a three-event burst
	// at the end. Each maximal run of consecutive garbage is one burst
	// and must produce exactly one log line.
	var events []live.Event
	garbageCount, bursts := 0, 0
	for i, ev := range feed.Events {
		if i%9 == 4 {
			events = append(events, live.Event{Vantage: 64512, Data: garbage[garbageCount%len(garbage)]})
			garbageCount++
			bursts++
		}
		events = append(events, live.Event{Vantage: ev.Vantage, Data: ev.Data})
	}
	for k := range garbage {
		events = append(events, live.Event{Vantage: 64512, Data: garbage[k]})
		garbageCount++
	}
	bursts++

	reg := obs.NewRegistry()
	m := live.NewMetrics(reg)
	ap := live.NewApplier(live.Config{Dict: dict, Metrics: m})
	var last *snapshot.Snapshot
	var logLines []string
	r := &live.Runner{
		Applier: ap,
		Swap:    func(s *snapshot.Snapshot) error { last = s; return nil },
		Log:     func(format string, args ...any) { logLines = append(logLines, fmt.Sprintf(format, args...)) },
	}
	ch := make(chan live.Event, len(events))
	for _, ev := range events {
		ch <- ev
	}
	close(ch)
	if err := r.Run(context.Background(), ch); err != nil {
		t.Fatalf("garbage on the stream must not kill the runner: %v", err)
	}

	if got := m.ParseErrors.Value(); got != uint64(garbageCount) {
		t.Errorf("ParseErrors = %d, want %d", got, garbageCount)
	}
	if applied, _ := ap.Applied(); applied != len(feed.Events) {
		t.Errorf("applied %d of %d good events", applied, len(feed.Events))
	}
	if len(logLines) != bursts {
		t.Errorf("%d log lines for %d garbage bursts", len(logLines), bursts)
	}
	for _, line := range logLines {
		if !bytes.Contains([]byte(line), []byte("unparseable")) {
			t.Errorf("log line does not name the drop: %q", line)
		}
	}
	if last == nil {
		t.Fatal("no final snapshot swapped")
	}
	clean := applyFeed(t, feed, live.Config{Dict: dict})
	if !bytes.Equal(snapBytes(t, last), snapBytes(t, clean.Snapshot())) {
		t.Error("dropped garbage changed the snapshot")
	}
}

// TestZeroThresholdAlwaysRecomputes pins the DirtyThreshold zero
// semantics: the zero value means "always recompute in full" (the
// debugging baseline), never touching the incremental path, and the
// result still matches the default-threshold configuration.
func TestZeroThresholdAlwaysRecomputes(t *testing.T) {
	in, dict := buildWorld(t, liveConfig(77))
	feed, err := bgpsim.GenerateFeed(in, bgpsim.FeedConfig{Seed: 23, ChurnEvents: 80})
	if err != nil {
		t.Fatal(err)
	}
	ap := live.NewApplier(live.Config{Dict: dict}) // zero value: always full
	for i, ev := range feed.Events {
		if err := ap.Apply(live.Event{Vantage: ev.Vantage, Data: ev.Data}); err != nil {
			t.Fatal(err)
		}
		if i%101 == 0 {
			ap.Resolve()
		}
	}
	zero := snapBytes(t, ap.Snapshot())
	if inc, full := ap.Resolves(); inc != 0 || full == 0 {
		t.Errorf("zero threshold resolved incrementally %d times, fully %d times; want 0 and > 0", inc, full)
	}
	// A negative threshold selects the default, whose snapshot must agree.
	def := applyFeed(t, feed, live.Config{Dict: dict, DirtyThreshold: -1})
	if !bytes.Equal(zero, snapBytes(t, def.Snapshot())) {
		t.Error("threshold semantics changed the snapshot")
	}
}

// TestRunnerDrain cancels the runner mid-stream and checks the drain
// contract: buffered events are applied and a final snapshot lands.
func TestRunnerDrain(t *testing.T) {
	in, dict := buildWorld(t, liveConfig(808))
	feed, err := bgpsim.GenerateFeed(in, bgpsim.FeedConfig{Seed: 11, ChurnEvents: 50})
	if err != nil {
		t.Fatal(err)
	}
	ap := live.NewApplier(live.Config{Dict: dict})
	events := make(chan live.Event, len(feed.Events))
	for _, ev := range feed.Events {
		events <- live.Event{Vantage: ev.Vantage, Data: ev.Data}
	}
	swaps := 0
	var last *snapshot.Snapshot
	r := &live.Runner{
		Applier: ap,
		Swap: func(s *snapshot.Snapshot) error {
			swaps++
			last = s
			return nil
		},
		Every: 500,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first receive: pure drain
	if err := r.Run(ctx, events); err != nil {
		t.Fatal(err)
	}
	if swaps == 0 || last == nil {
		t.Fatal("drain did not produce a final snapshot")
	}
	applied, _ := ap.Applied()
	if applied != len(feed.Events) {
		t.Fatalf("drain applied %d of %d buffered events", applied, len(feed.Events))
	}

	// The drained final snapshot equals a direct capture.
	if !bytes.Equal(snapBytes(t, last), snapBytes(t, ap.Snapshot())) {
		t.Error("drained snapshot is not the final state")
	}
}
