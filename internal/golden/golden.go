// Package golden pins the headline numbers of the canonical small
// test world in one shared location. The pipeline, snapshot, and
// serve golden tests (and the CLI smoke tests) all reference these
// values, so the copies cannot drift independently. It deliberately
// lives apart from package testutil: golden imports core, and core's
// own tests import testutil.
package golden

import (
	"reflect"
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/core"
	"hybridrel/internal/valley"
)

// Numbers is the pinned set of headline numbers for a canonical world.
type Numbers struct {
	Coverage        core.Coverage
	Hybrid          int
	DualClassified  int
	ByClass         map[asrel.HybridClass]int
	Paths           int
	PathsWithHybrid int
	Valley          valley.Stats
}

// Small returns the headline numbers of the canonical small test
// world — BuildWorld(gen.SmallConfig()), equivalently Synthesize at two
// collectors with the default seed 42 — pinned once here so the
// pipeline, snapshot, and serve golden tests all reference the same
// values and cannot drift independently. Any change to the generator,
// collection, ingestion, inference, or the dual-stack join shows up as
// a diff against these numbers.
func Small() Numbers {
	return Numbers{
		Coverage: core.Coverage{
			Paths6: 3765, Links6: 333, Links4: 1169, DualStack: 208,
			Classified6: 242, ClassifiedDual: 146, ClassifiedDualBoth: 144,
		},
		Hybrid:         23,
		DualClassified: 144,
		ByClass: map[asrel.HybridClass]int{
			asrel.HybridPeerTransit: 15,
			asrel.HybridTransitPeer: 7,
			asrel.HybridReversed:    1,
		},
		Paths:           3765,
		PathsWithHybrid: 1353,
		Valley: valley.Stats{
			Total: 3765, ValleyFree: 1753, Valley: 505,
			Unclassified: 1507, Necessary: 192,
		},
	}
}

// SmallSnapshotV1FNV is the FNV-64a hash of the canonical small
// world's snapshot in format v1, uncompressed, as the retired
// version-1 encoder wrote it: the committed
// internal/snapshot/testdata/small.snap1, which keeps the v1 read path
// pinned.
const SmallSnapshotV1FNV uint64 = 0xcb83252e40e9d2e6

// SmallSnapshotV2FNV is the FNV-64a hash of the canonical small
// world's snapshot in format v2 (the version-2 encoder over
// snapshot.Capture of the Small analysis). The headline numbers above
// are aggregates; this pins every byte a server would load — each
// relationship of both planes, each link's visibility, the hybrid
// list — so a refactor that keeps the counts but moves one answer
// shows up here.
const SmallSnapshotV2FNV uint64 = 0xbb827e2f072a0f6f

// SmallSnapshotV3FNV is the FNV-64a hash of the same snapshot in
// format v3 (what snapshot.EncodeV2 writes now): the v2 sections plus
// the serving index and per-section checksums. The v2 bytes stay
// pinned by SmallSnapshotV2FNV through the committed
// internal/snapshot/testdata/small.snap2.
const SmallSnapshotV3FNV uint64 = 0x06118dd2687e0678

// AssertSmall fails the test wherever the analysis of the
// canonical small world disagrees with the pinned headline numbers.
func AssertSmall(t testing.TB, a *core.Analysis) {
	t.Helper()
	g := Small()
	if cov := a.Coverage(); cov != g.Coverage {
		t.Errorf("golden coverage = %+v, want %+v", cov, g.Coverage)
	}
	census := a.HybridCensus()
	if census.Hybrid != g.Hybrid || census.DualClassified != g.DualClassified {
		t.Errorf("golden census = %d/%d, want %d/%d",
			census.Hybrid, census.DualClassified, g.Hybrid, g.DualClassified)
	}
	if !reflect.DeepEqual(census.ByClass, g.ByClass) {
		t.Errorf("golden class split = %v, want %v", census.ByClass, g.ByClass)
	}
	if v := a.HybridVisibility(); v.Paths != g.Paths || v.PathsWithHybrid != g.PathsWithHybrid {
		t.Errorf("golden visibility = %d/%d, want %d/%d",
			v.PathsWithHybrid, v.Paths, g.PathsWithHybrid, g.Paths)
	}
	if st := a.ValleyReport(); st != g.Valley {
		t.Errorf("golden valley = %+v, want %+v", st, g.Valley)
	}
}
