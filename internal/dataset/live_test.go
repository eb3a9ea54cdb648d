package dataset

import (
	"math/rand"
	"reflect"
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
)

// liveRoute is one announcement a test retains in a dataset.
type liveRoute struct {
	path   []asrel.ASN
	comms  []bgp.Community
	locPrf uint32
}

// livePool is a set of distinct paths deliberately listed out of
// canonical order, so new records keep arriving below, between and
// above the ones Paths has already ordered.
func livePool() []liveRoute {
	paths := [][]asrel.ASN{
		{7, 3, 9}, {2, 5}, {9, 1, 4, 8}, {2, 5, 6}, {1, 6}, {7, 3},
		{4, 4, 2, 1}, // prepending: cleans to 4 2 1
		{1, 2, 3}, {9, 1}, {3, 8, 2}, {1, 2}, {5, 7, 3, 6},
	}
	var out []liveRoute
	for i, p := range paths {
		r := liveRoute{
			path:   p,
			locPrf: uint32(100 + 10*i),
		}
		if i%3 == 0 {
			r.comms = []bgp.Community{bgp.MakeCommunity(uint16(p[0]), uint16(i))}
		}
		out = append(out, r)
	}
	return out
}

// liveModel replays a dataset's history of retains and releases into
// a batch dataset built fresh: every route retained so far whose path
// is active now, in order. A record keeps its first-seen attributes
// over its whole history, so this is the batch dataset of the active
// routes Paths must reproduce. The model tells paths apart by
// replaying each route into a dataset of its own, keys, whose record
// index names the cleaned path.
type liveModel struct {
	log  []liveRoute
	keys *Dataset
	refs map[int32]int
}

func newLiveModel() *liveModel {
	return &liveModel{keys: New(asrel.IPv4), refs: make(map[int32]int)}
}

func (m *liveModel) key(t *testing.T, r liveRoute) int32 {
	t.Helper()
	idx, _, err := m.keys.Retain(r.path, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func (m *liveModel) retain(t *testing.T, d *Dataset, r liveRoute) int32 {
	t.Helper()
	idx, _, err := d.Retain(r.path, r.comms, r.locPrf, true)
	if err != nil {
		t.Fatal(err)
	}
	m.log = append(m.log, r)
	m.refs[m.key(t, r)]++
	return idx
}

func (m *liveModel) release(t *testing.T, d *Dataset, idx int32, r liveRoute) {
	t.Helper()
	d.Release(idx)
	m.refs[m.key(t, r)]--
}

func (m *liveModel) batch(t *testing.T) []PathObs {
	t.Helper()
	b := New(asrel.IPv4)
	for _, r := range m.log {
		if m.refs[m.key(t, r)] == 0 {
			continue
		}
		if err := b.AddPath(r.path, r.comms, r.locPrf, true); err != nil {
			t.Fatal(err)
		}
	}
	return walk(b)
}

func checkLivePaths(t *testing.T, step int, d *Dataset, m *liveModel) {
	t.Helper()
	got, want := walk(d), m.batch(t)
	if len(got) != len(want) {
		t.Fatalf("step %d: live Paths has %d paths, batch of the active routes %d", step, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("step %d: path %d = %+v, want %+v", step, i, got[i], want[i])
		}
	}
	if n := d.NumUniquePaths(); n != len(got) {
		t.Fatalf("step %d: NumUniquePaths = %d, Paths has %d", step, n, len(got))
	}
}

// TestLivePathsMatchBatch interleaves Retain, Release and Paths on a
// dataset and checks every Paths against a batch dataset built
// from the active routes: same order, same attributes, withdrawn
// records absent and revived ones back.
func TestLivePathsMatchBatch(t *testing.T) {
	pool := livePool()
	rng := rand.New(rand.NewSource(5))
	d := New(asrel.IPv4)
	m := newLiveModel()
	type held struct {
		idx int32
		r   liveRoute
	}
	var rib []held
	for step := 0; step < 400; step++ {
		switch {
		case len(rib) > 0 && rng.Intn(5) < 2:
			k := rng.Intn(len(rib))
			m.release(t, d, rib[k].idx, rib[k].r)
			rib = append(rib[:k], rib[k+1:]...)
		default:
			r := pool[rng.Intn(len(pool))]
			rib = append(rib, held{m.retain(t, d, r), r})
		}
		if rng.Intn(4) == 0 {
			checkLivePaths(t, step, d, m)
		}
	}
	checkLivePaths(t, -1, d, m)

	// Withdraw everything: Paths empties; revive one record: it is back.
	for _, h := range rib {
		m.release(t, d, h.idx, h.r)
	}
	checkLivePaths(t, -2, d, m)
	if n := len(walk(d)); n != 0 {
		t.Fatalf("%d paths visible with every route withdrawn", n)
	}
	m.retain(t, d, pool[4])
	checkLivePaths(t, -3, d, m)
}

// TestLivePathsReflectRetainAfterCall checks walks against retains
// made between them: a record retained again after a walk, by a route
// with another LOCAL_PREF, still appears once and with its first-seen
// attributes, and an untouched record reads as it did.
func TestLivePathsReflectRetainAfterCall(t *testing.T) {
	pool := livePool()
	d := New(asrel.IPv4)
	m := newLiveModel()
	m.retain(t, d, pool[0])
	m.retain(t, d, pool[1])
	first := walk(d)
	if again := walk(d); !reflect.DeepEqual(again, first) {
		t.Error("a second walk over unchanged records differs from the first")
	}

	r := pool[0]
	r.locPrf = 999
	m.retain(t, d, r)
	checkLivePaths(t, 0, d, m)
	var got *PathObs
	paths := walk(d)
	for i := range paths {
		if paths[i].Vantage == 7 {
			got = &paths[i]
		}
	}
	if got == nil || got.LocPrf != pool[0].locPrf {
		t.Fatalf("re-retained record lost its first-seen attributes: %+v", got)
	}
	if untouched := paths[0]; !reflect.DeepEqual(untouched, first[0]) {
		t.Errorf("an untouched record reads %+v, was %+v", untouched, first[0])
	}
}
