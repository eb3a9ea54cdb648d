package dataset

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
)

// liveRoute is one announcement a test feeds a live dataset.
type liveRoute struct {
	path   []asrel.ASN
	prefix netip.Prefix
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
			prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16),
			locPrf: uint32(100 + 10*i),
		}
		if i%3 == 0 {
			r.comms = []bgp.Community{bgp.MakeCommunity(uint16(p[0]), uint16(i))}
		}
		out = append(out, r)
	}
	return out
}

// liveModel replays a live dataset's history into a batch one: every
// Retain of a path that is active now, in order. Obs and prefixes of a
// live record accumulate over its whole history, so this is the batch
// dataset of the active routes the live Paths must reproduce.
type liveModel struct {
	log  []liveRoute
	refs map[string]int
}

func pathKey(p []asrel.ASN) string {
	c, err := CleanPath(p)
	if err != nil {
		panic(err)
	}
	return fmt.Sprint(c)
}

func (m *liveModel) retain(t *testing.T, d *Dataset, r liveRoute) int32 {
	t.Helper()
	idx, _, err := d.Retain(r.path, r.prefix, r.comms, r.locPrf, true)
	if err != nil {
		t.Fatal(err)
	}
	m.log = append(m.log, r)
	m.refs[pathKey(r.path)]++
	return idx
}

func (m *liveModel) release(d *Dataset, idx int32, r liveRoute) {
	d.Release(idx)
	m.refs[pathKey(r.path)]--
}

func (m *liveModel) batch(t *testing.T) []*PathObs {
	t.Helper()
	b := New(asrel.IPv4)
	for _, r := range m.log {
		if m.refs[pathKey(r.path)] == 0 {
			continue
		}
		if err := b.AddPath(r.path, r.prefix, r.comms, r.locPrf, true); err != nil {
			t.Fatal(err)
		}
	}
	return b.Paths()
}

func checkLivePaths(t *testing.T, step int, d *Dataset, m *liveModel) {
	t.Helper()
	got, want := d.Paths(), m.batch(t)
	if len(got) != len(want) {
		t.Fatalf("step %d: live Paths has %d paths, batch of the active routes %d", step, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(*got[i], *want[i]) {
			t.Fatalf("step %d: path %d = %+v, want %+v", step, i, *got[i], *want[i])
		}
	}
	if n := d.NumUniquePaths(); n != len(got) {
		t.Fatalf("step %d: NumUniquePaths = %d, Paths has %d", step, n, len(got))
	}
}

// TestLivePathsMatchBatch interleaves Retain, Release and Paths on a
// live dataset and checks every Paths against a batch dataset built
// from the active routes: same order, same attributes, withdrawn
// records absent and revived ones back.
func TestLivePathsMatchBatch(t *testing.T) {
	pool := livePool()
	rng := rand.New(rand.NewSource(5))
	d := NewLive(asrel.IPv4)
	m := &liveModel{refs: make(map[string]int)}
	type held struct {
		idx int32
		r   liveRoute
	}
	var rib []held
	for step := 0; step < 400; step++ {
		switch {
		case len(rib) > 0 && rng.Intn(5) < 2:
			k := rng.Intn(len(rib))
			m.release(d, rib[k].idx, rib[k].r)
			rib = append(rib[:k], rib[k+1:]...)
		default:
			r := pool[rng.Intn(len(pool))]
			if rng.Intn(3) == 0 {
				// Same path, another prefix.
				r.prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{172, byte(rng.Intn(4)), 0, 0}), 16)
			}
			rib = append(rib, held{m.retain(t, d, r), r})
		}
		if rng.Intn(4) == 0 {
			checkLivePaths(t, step, d, m)
		}
	}
	checkLivePaths(t, -1, d, m)

	// Withdraw everything: Paths empties; revive one record: it is back.
	for _, h := range rib {
		m.release(d, h.idx, h.r)
	}
	checkLivePaths(t, -2, d, m)
	if n := len(d.Paths()); n != 0 {
		t.Fatalf("%d paths visible with every route withdrawn", n)
	}
	m.retain(t, d, pool[4])
	checkLivePaths(t, -3, d, m)
}

// TestLivePathsReflectRetainAfterCall guards the per-record view
// cache: a record retained again after a Paths call must show its new
// observation count and added prefix, while untouched records keep
// their cached view.
func TestLivePathsReflectRetainAfterCall(t *testing.T) {
	pool := livePool()
	d := NewLive(asrel.IPv4)
	m := &liveModel{refs: make(map[string]int)}
	m.retain(t, d, pool[0])
	m.retain(t, d, pool[1])
	first := d.Paths()
	if again := d.Paths(); again[0] != first[0] || again[1] != first[1] {
		t.Error("unchanged records were materialized again")
	}

	r := pool[0]
	r.prefix = netip.MustParsePrefix("192.0.2.0/24")
	m.retain(t, d, r)
	checkLivePaths(t, 0, d, m)
	var got *PathObs
	for _, p := range d.Paths() {
		if p.Vantage == 7 {
			got = p
		}
	}
	if got == nil || got.Obs != 2 || len(got.Prefixes) != 2 || got.Prefixes[1] != r.prefix {
		t.Fatalf("re-retained record shows a stale view: %+v", got)
	}
	if untouched := d.Paths()[0]; untouched != first[0] {
		t.Error("an untouched record lost its cached view")
	}
}
