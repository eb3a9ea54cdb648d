package snapshot_test

// Load-cost gates for the mapped format. They live in the external
// test package so they can build their worlds with internal/scale,
// which itself imports snapshot.

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"hybridrel/internal/scale"
	"hybridrel/internal/snapshot"
)

const (
	// mapTierMaxRatio bounds how much slower mapping the 10k-tier file
	// may be than mapping the 600-AS one. Map is structural validation
	// plus one mmap call, so its cost must not grow with the file.
	mapTierMaxRatio = 1.2
	// mapOverOpenMinSpeedup is how much faster Map must be than Open,
	// which decodes and validates every section, on the same 10k file.
	mapOverOpenMinSpeedup = 5.0
)

// writeTier builds a scale tier and writes it as a v2 file.
func writeTier(t *testing.T, cfg scale.Config, path string) string {
	t.Helper()
	s, err := scale.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteFileV2(path, s); err != nil {
		t.Fatal(err)
	}
	return path
}

// minTime is the fastest of n timed calls: the least noisy estimate of
// what the work itself costs.
func minTime(n int, fn func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < n; i++ {
		start := time.Now()
		fn()
		best = min(best, time.Since(start))
	}
	return best
}

// TestMapTierIndependent holds Map's cost independent of the file's
// size. Rounds interleave the 600-AS and 10k-tier files so drift on
// the host lands on both, and each side keeps its fastest call. The
// 10k map may cost at most mapTierMaxRatio of the 600-AS map, and must
// allocate exactly as much: the sections are aliased, not copied. The
// same 10k file then sets Map against Open, whose full decode grows
// with the link count, so mapping must win by mapOverOpenMinSpeedup.
func TestMapTierIndependent(t *testing.T) {
	dir := t.TempDir()
	small := writeTier(t, scale.Tier600(), filepath.Join(dir, "world-600.snap2"))
	large := writeTier(t, scale.Tier10k(), filepath.Join(dir, "world-10k.snap2"))
	mapFile := func(path string) func() {
		return func() {
			s, err := snapshot.Map(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(s.Links4) == 0 {
				t.Fatalf("%s: mapped no links", path)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	mapSmall, mapLarge := mapFile(small), mapFile(large)

	best600, best10k := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for round := 0; round < 5; round++ {
		best600 = min(best600, minTime(20, mapSmall))
		best10k = min(best10k, minTime(20, mapLarge))
	}
	ratio := float64(best10k) / float64(best600)
	t.Logf("Map: 600-AS %v, 10k %v (%.2fx)", best600, best10k, ratio)
	if ratio > mapTierMaxRatio {
		t.Errorf("mapping the 10k tier costs %.2fx the 600-AS tier (%v vs %v); bound %.2fx",
			ratio, best10k, best600, mapTierMaxRatio)
	}
	if a600, a10k := testing.AllocsPerRun(20, mapSmall), testing.AllocsPerRun(20, mapLarge); a600 != a10k {
		t.Errorf("Map allocates %.0f objects at the 600-AS tier but %.0f at the 10k tier; want equal", a600, a10k)
	}

	open := minTime(5, func() {
		s, err := snapshot.Open(large)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Links4) == 0 {
			t.Fatal("Open decoded no links")
		}
	})
	speedup := float64(open) / float64(best10k)
	t.Logf("10k tier: Open %v, Map %v (%.0fx)", open, best10k, speedup)
	if speedup < mapOverOpenMinSpeedup {
		t.Errorf("Map is only %.1fx faster than Open on the 10k tier (%v vs %v); want at least %.0fx",
			speedup, best10k, open, mapOverOpenMinSpeedup)
	}
}
