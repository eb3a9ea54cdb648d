// Package live is the streaming counterpart of the batch pipeline: a
// long-running ingester that consumes BGP UPDATE messages (RIS-Live
// style), maintains a mutable live dataset per plane on top of the
// interned arena's refcounting delta layer, re-infers relationships
// incrementally from a dirty-set tracker, and on a cadence captures a
// snapshot and hot-swaps it into the serving layer with zero dropped
// reads.
//
// The subsystem's contract is equivalence: at any quiescent point, the
// captured snapshot is byte-identical to what the batch pipeline would
// produce from archives describing the same active routes. Everything
// is built to make that hold by construction — the dataset's flat
// index folds announcement and withdrawal deltas through the same
// accumulator arithmetic batch ingestion uses, and both inference
// methods aggregate per-path/per-vantage emissions that are shared
// code with their batch implementations.
package live

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
	"hybridrel/internal/community"
	"hybridrel/internal/core"
	"hybridrel/internal/dataset"
	"hybridrel/internal/infer/locpref"
	"hybridrel/internal/snapshot"
)

// Event is one feed message: a BGP UPDATE as heard from a vantage AS.
// The message body determines the plane (v4 NLRI/withdrawn sections,
// v6 MP_REACH/MP_UNREACH attributes); one event may carry both.
type Event struct {
	Vantage asrel.ASN
	Data    []byte
}

// Config tunes the live ingester.
type Config struct {
	// Dict is the community dictionary (from the IRR), shared with the
	// batch path.
	Dict *community.Dictionary
	// LocPref must match the batch pipeline's configuration for
	// equivalence; the zero value normalizes to the same default.
	LocPref locpref.Config
	// DirtyThreshold is the dirty-work fraction (dirty links+vantages
	// over total links) past which resolve falls back to a full
	// recompute. Negative selects DefaultDirtyThreshold; zero means
	// "always recompute in full" (useful as a debugging/benchmark
	// baseline).
	DirtyThreshold float64
	// Metrics, when non-nil, receives the live-tier instrumentation
	// (NewMetrics); nil disables it.
	Metrics *Metrics
}

// DefaultDirtyThreshold is the dirty-work fraction past which resolve
// abandons the incremental path for a full recompute.
const DefaultDirtyThreshold = 0.05

func (c Config) threshold() float64 {
	if c.DirtyThreshold < 0 {
		return DefaultDirtyThreshold
	}
	return c.DirtyThreshold
}

// Applier owns the live datasets and the per-plane incremental
// engines, and applies parsed updates to them. It is single-writer:
// one goroutine applies events and captures snapshots; concurrent
// readers belong on the serving side of the snapshot swap.
type Applier struct {
	D4, D6 *dataset.Dataset
	Dict   *community.Dictionary

	cfg Config
	e4  *planeEngine
	e6  *planeEngine

	rib  map[ribKey]int32
	opt  bgp.Options
	upd  bgp.Update
	flat []asrel.ASN // flattened AS-path scratch

	applied     int
	withdrawals int

	metrics *Metrics
}

// ribKey identifies one route: the prefix distinguishes the plane.
type ribKey struct {
	vantage asrel.ASN
	prefix  netip.Prefix
}

// NewApplier returns an empty live table pair.
func NewApplier(cfg Config) *Applier {
	d4 := dataset.NewLive(asrel.IPv4)
	d6 := dataset.NewLive(asrel.IPv6)
	return &Applier{
		D4: d4, D6: d6, Dict: cfg.Dict,
		cfg:     cfg,
		e4:      newPlaneEngine(d4, cfg.Dict, cfg.LocPref),
		e6:      newPlaneEngine(d6, cfg.Dict, cfg.LocPref),
		rib:     make(map[ribKey]int32),
		opt:     bgp.Options{ASN4: true},
		metrics: cfg.Metrics,
	}
}

// Apply parses and applies one UPDATE message. Parse errors are
// returned (the stream is unframed garbage past them); per-route
// drops (AS path loops) are tallied in the datasets like batch ingest.
func (ap *Applier) Apply(ev Event) error {
	if err := bgp.ParseUpdate(ev.Data, ap.opt, &ap.upd); err != nil {
		return fmt.Errorf("live: vantage %s: %w", ev.Vantage, err)
	}
	u := &ap.upd
	ap.applied++

	for _, pfx := range u.Withdrawn {
		ap.withdraw(ap.D4, ap.e4, ev.Vantage, pfx)
	}
	if mp := u.Attrs.MPUnreach; mp != nil && mp.AFI == bgp.AFIIPv6 && mp.SAFI == bgp.SAFIUnicast {
		for _, pfx := range mp.Withdrawn {
			ap.withdraw(ap.D6, ap.e6, ev.Vantage, pfx)
		}
	}

	if len(u.NLRI) > 0 {
		ap.announce(ap.D4, ap.e4, ev.Vantage, u.NLRI, u)
	}
	if mp := u.Attrs.MPReach; mp != nil && mp.AFI == bgp.AFIIPv6 && mp.SAFI == bgp.SAFIUnicast && len(mp.NLRI) > 0 {
		ap.announce(ap.D6, ap.e6, ev.Vantage, mp.NLRI, u)
	}
	ap.noteApply()
	return nil
}

func (ap *Applier) announce(d *dataset.Dataset, e *planeEngine, vantage asrel.ASN, prefixes []netip.Prefix, u *bgp.Update) {
	path := u.Attrs.EffectivePath()
	if path.HasSet() {
		return // AS_SET paths are dropped, as in batch ingest
	}
	ap.flat = path.AppendFlatten(ap.flat[:0])
	flat := ap.flat
	if len(flat) == 0 {
		return
	}
	for _, pfx := range prefixes {
		idx, activated, err := d.Retain(flat, pfx, u.Attrs.Communities, u.Attrs.LocalPref, u.Attrs.HasLocalPref)
		if err != nil {
			continue // loop path; tallied by the dataset
		}
		if activated {
			e.activate(d.RecObs(idx))
		}
		if ap.metrics != nil {
			ap.metrics.Announced.Inc()
		}
		key := ribKey{vantage, pfx}
		// Implicit withdraw: a re-announcement replaces the old route.
		// Retain-then-Release keeps an unchanged path active across the
		// replacement, so no spurious deltas are emitted — and the
		// Release must happen even when old == idx, or each identical
		// re-announcement leaks a refcount and a later withdraw can
		// never deactivate the route.
		if old, ok := ap.rib[key]; ok {
			if d.Release(old) {
				e.deactivate(d.RecObs(old))
			}
		}
		ap.rib[key] = idx
	}
}

func (ap *Applier) withdraw(d *dataset.Dataset, e *planeEngine, vantage asrel.ASN, pfx netip.Prefix) {
	key := ribKey{vantage, pfx}
	idx, ok := ap.rib[key]
	if !ok {
		return // withdrawal for a route we never heard
	}
	delete(ap.rib, key)
	ap.withdrawals++
	if ap.metrics != nil {
		ap.metrics.Withdrawn.Inc()
	}
	if d.Release(idx) {
		e.deactivate(d.RecObs(idx))
	}
}

// Applied returns the number of UPDATEs applied and the number of
// route withdrawals among them.
func (ap *Applier) Applied() (updates, withdrawals int) {
	return ap.applied, ap.withdrawals
}

// RIBSize returns the number of routes currently held across both
// planes — one entry per (vantage, prefix). At any quiescent point it
// must equal the sum of active route references in the datasets
// (Dataset.ActiveRefs); divergence means a refcount bug.
func (ap *Applier) RIBSize() int {
	return len(ap.rib)
}

// Resolves reports how the engines brought their tables up to date so
// far: incremental dirty-set resolves vs. full recomputes, summed over
// both planes.
func (ap *Applier) Resolves() (incremental, full int) {
	return ap.e4.incrementalResolves + ap.e6.incrementalResolves,
		ap.e4.fullRecomputes + ap.e6.fullRecomputes
}

// Resolve brings both planes' relationship tables up to date without
// capturing a snapshot — exposed for benchmarks; Snapshot calls it.
func (ap *Applier) Resolve() {
	i0, f0 := ap.Resolves()
	ap.e4.resolve(ap.cfg.threshold())
	ap.e6.resolve(ap.cfg.threshold())
	ap.noteResolves(i0, f0)
}

// Recompute forces the full-recompute path on both planes, regardless
// of dirty state — the reference the incremental path is benchmarked
// and tested against.
func (ap *Applier) Recompute() {
	i0, f0 := ap.Resolves()
	ap.e4.recompute()
	ap.e6.recompute()
	ap.noteResolves(i0, f0)
}

// Snapshot resolves pending dirty state and captures the current
// analysis, byte-identical to a batch run over the active routes.
func (ap *Applier) Snapshot() *snapshot.Snapshot {
	ap.Resolve()
	comm4, loc4 := ap.e4.results()
	comm6, loc6 := ap.e6.results()
	a := core.Assemble(ap.D4, ap.D6, ap.Dict, comm4, comm6, loc4, loc6)
	return snapshot.Capture(a)
}

// Runner wires a feed channel through an Applier into a snapshot
// swapper on a cadence.
type Runner struct {
	Applier *Applier
	// Swap installs a freshly-captured snapshot (e.g. serve.Server.Load).
	Swap func(*snapshot.Snapshot) error
	// Every triggers a snapshot after that many applied updates
	// (0 disables the count trigger).
	Every int
	// Interval triggers a snapshot on a timer when updates arrived
	// since the last one (0 disables the timer).
	Interval time.Duration
	// Log, when non-nil, receives one line at the start of each burst
	// of parse failures (log.Printf-shaped). Parse failures are
	// non-fatal: real archives contain the occasional malformed UPDATE
	// and one bad event must not take down live serving.
	Log func(format string, args ...any)

	// inErrBurst is true while consecutive events are failing to parse;
	// only the first failure of a burst is logged.
	inErrBurst bool
}

// applyEvent applies one event, absorbing parse failures: they are
// counted on Metrics.ParseErrors, logged once per burst, and reported
// as applied=false so the snapshot cadence ignores them.
func (r *Runner) applyEvent(ev Event) bool {
	err := r.Applier.Apply(ev)
	if err == nil {
		r.inErrBurst = false
		return true
	}
	if m := r.Applier.metrics; m != nil {
		m.ParseErrors.Inc()
	}
	if !r.inErrBurst {
		r.inErrBurst = true
		if r.Log != nil {
			r.Log("live: dropping unparseable event(s): %v", err)
		}
	}
	return false
}

// Run consumes events until the channel closes or the context is
// canceled. Shutdown is a graceful drain either way: buffered events
// are applied, one final snapshot is captured and swapped, and only
// then does Run return — the serving side never sees a torn table
// because it only ever sees immutable snapshots.
func (r *Runner) Run(ctx context.Context, events <-chan Event) error {
	var tick <-chan time.Time
	if r.Interval > 0 {
		t := time.NewTicker(r.Interval)
		defer t.Stop()
		tick = t.C
	}
	pending := 0
	snap := func() error {
		if pending == 0 {
			return nil
		}
		pending = 0
		return r.swap()
	}
	for {
		select {
		case <-ctx.Done():
			return r.drain(events, pending)
		case ev, ok := <-events:
			if !ok {
				if err := snap(); err != nil {
					return err
				}
				return nil
			}
			if r.applyEvent(ev) {
				pending++
			}
			if r.Every > 0 && pending >= r.Every {
				if err := snap(); err != nil {
					return err
				}
			}
		case <-tick:
			if err := snap(); err != nil {
				return err
			}
		}
	}
}

// swap captures a snapshot, installs it, and records the capture+
// install latency — the freshness cost a reader pays for live data.
func (r *Runner) swap() error {
	start := time.Now()
	err := r.Swap(r.Applier.Snapshot())
	if err == nil {
		r.Applier.noteSwap(start)
	}
	return err
}

// drain applies whatever the feed already buffered, then swaps one
// final snapshot so shutdown never discards applied-but-unserved work.
func (r *Runner) drain(events <-chan Event, pending int) error {
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				if pending == 0 {
					return nil
				}
				return r.swap()
			}
			if r.applyEvent(ev) {
				pending++
			}
		default:
			if pending == 0 {
				return nil
			}
			return r.swap()
		}
	}
}
