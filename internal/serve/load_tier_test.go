package serve

// The install-cost gate, modelled on snapshot's TestMapTierIndependent:
// a mapped v3 snapshot carries its serving index, so Load does no work
// that grows with the world.

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"hybridrel/internal/scale"
	"hybridrel/internal/snapshot"
)

// loadTierMaxRatio bounds how much slower mapping the 10k-tier file
// and installing it into a fresh server may be than the same for the
// 600-AS file.
const loadTierMaxRatio = 1.2

// TestLoadTierIndependent holds installing a mapped v3 snapshot
// independent of its size. A first Load alone costs well under a
// microsecond, too little to time reliably on a shared host, so each
// sample times Map and the first Load together (~8 µs, of which Map's
// own tier independence is TestMapTierIndependent's gate): the 10k
// sample may cost at most loadTierMaxRatio of the 600-AS one, and the
// pair must allocate exactly as much at both tiers. A same-file reload
// into a loaded server, which also diffs the outgoing tables against
// the incoming ones, must allocate equally at both tiers too.
func TestLoadTierIndependent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts through sync.Pool are randomized under the race detector")
	}
	dir := t.TempDir()
	paths := map[string]string{}
	for name, cfg := range map[string]scale.Config{"600": scale.Tier600(), "10k": scale.Tier10k()} {
		s, err := scale.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		paths[name] = filepath.Join(dir, "world-"+name+".snap")
		if err := snapshot.WriteFileV2(paths[name], s); err != nil {
			t.Fatal(err)
		}
	}
	mapFile := func(path string) *snapshot.Snapshot {
		m, err := snapshot.Map(path)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// mapAndLoad maps path and installs it into a fresh server: the
	// whole cost of bringing a snapshot file into service, which Map
	// keeps structural and Load keeps free of index work.
	mapAndLoad := func(path string) time.Duration {
		srv := New(nil)
		start := time.Now()
		m := mapFile(path)
		srv.Load(m)
		d := time.Since(start)
		if _, _, _, hybrids, ok := srv.Summary(); !ok || hybrids == 0 {
			t.Fatalf("%s: installed snapshot serves no hybrids", path)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		return d
	}

	// Samples alternate between the tiers, so drift on the host lands
	// on both; each side keeps its fastest.
	best := map[string]time.Duration{"600": math.MaxInt64, "10k": math.MaxInt64}
	for i := 0; i < 200; i++ {
		for _, name := range []string{"600", "10k"} {
			best[name] = min(best[name], mapAndLoad(paths[name]))
		}
	}
	ratio := float64(best["10k"]) / float64(best["600"])
	t.Logf("map and first Load: 600-AS %v, 10k %v (%.2fx)", best["600"], best["10k"], ratio)
	if ratio > loadTierMaxRatio {
		t.Errorf("mapping and installing the 10k tier costs %.2fx the 600-AS tier (%v vs %v); bound %.2fx",
			ratio, best["10k"], best["600"], loadTierMaxRatio)
	}

	install := func(path string) func() { return func() { mapAndLoad(path) } }
	if a600, a10k := testing.AllocsPerRun(20, install(paths["600"])), testing.AllocsPerRun(20, install(paths["10k"])); a600 != a10k {
		t.Errorf("map and first Load allocate %.0f objects at the 600-AS tier but %.0f at the 10k tier; want equal", a600, a10k)
	}

	reload := func(path string) func() {
		srv := New(mapFile(path))
		return func() { srv.Load(mapFile(path)) }
	}
	if a600, a10k := testing.AllocsPerRun(20, reload(paths["600"])), testing.AllocsPerRun(20, reload(paths["10k"])); a600 != a10k {
		t.Errorf("a same-file reload allocates %.0f objects at the 600-AS tier but %.0f at the 10k tier; want equal", a600, a10k)
	}
}
