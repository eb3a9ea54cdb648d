package core

// Pins the documented "accessors are safe for concurrent use" claim:
// N goroutines hit every memoized Analysis accessor simultaneously on
// a fresh Analysis (so the sync.Once initializations race with the
// readers), half of them running the Figure-2 sweep over the same IPv6
// graph the valley report walks, results must agree across goroutines,
// and the copies the accessors hand out must be independently mutable.
// Run with -race.

import (
	"reflect"
	"sync"
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/ctree"
)

// probeClass is a synthetic census key each goroutine mutates to prove
// the ByClass copies are independent.
const probeClass = asrel.HybridClass(200)

func TestAnalysisAccessorsConcurrent(t *testing.T) {
	_, a := analyzeSmall(t)

	const goroutines = 16
	type products struct {
		hybrids    []HybridLink
		coverage   Coverage
		census     HybridCensus
		visibility Visibility
	}
	got := make([]products, goroutines)
	valleys := make([]any, goroutines)
	baseline := a.BaselineV6(a.Comm4.Table, a.Comm6.Table)
	sweeps := make([][]ctree.SweepPoint, goroutines)

	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if i%2 == 1 {
				sweeps[i] = a.Figure2(baseline, 3, 0)
			}
			p := products{
				hybrids:    a.Hybrids(),
				coverage:   a.Coverage(),
				census:     a.HybridCensus(),
				visibility: a.HybridVisibility(),
			}
			valleys[i] = a.ValleyReport()
			// The hybrid slice and census map are documented as copies
			// the caller may keep; mutating them must not race with the
			// other goroutines doing the same.
			if len(p.hybrids) > 0 {
				p.hybrids[0].Visibility = -(i + 1)
			}
			p.census.ByClass[probeClass] = i
			got[i] = p
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 1; i < goroutines; i++ {
		if got[i].coverage != got[0].coverage {
			t.Errorf("goroutine %d: coverage diverged", i)
		}
		if got[i].visibility != got[0].visibility {
			t.Errorf("goroutine %d: visibility diverged", i)
		}
		if !reflect.DeepEqual(valleys[i], valleys[0]) {
			t.Errorf("goroutine %d: valley report diverged", i)
		}
		if i%2 == 1 && !reflect.DeepEqual(sweeps[i], sweeps[1]) {
			t.Errorf("goroutine %d: Figure-2 sweep diverged", i)
		}
		// Each goroutine must see only its own probe mutation — shared
		// storage would have let a neighbor's value win.
		ci, c0 := got[i].census, got[0].census
		if ci.ByClass[probeClass] != i || c0.ByClass[probeClass] != 0 {
			t.Errorf("goroutine %d: census copies are not independent", i)
		}
		delete(ci.ByClass, probeClass)
		delete(c0.ByClass, probeClass)
		if !reflect.DeepEqual(ci, c0) {
			t.Errorf("goroutine %d: census diverged", i)
		}
		hi, h0 := got[i].hybrids, got[0].hybrids
		if len(hi) > 0 {
			if hi[0].Visibility != -(i+1) || h0[0].Visibility != -1 {
				t.Errorf("goroutine %d: hybrid slice copies are not independent", i)
			}
			hi[0] = h0[0]
		}
		if !reflect.DeepEqual(hi, h0) {
			t.Errorf("goroutine %d: hybrid list diverged", i)
		}
	}

	// A fresh accessor call after the storm still returns the pristine
	// memoized products, untouched by the copy mutations above.
	clean := a.Hybrids()
	if len(clean) > 0 && clean[0].Visibility < 0 {
		t.Error("mutating a returned hybrid slice leaked into the memoized list")
	}
	if _, leaked := a.HybridCensus().ByClass[probeClass]; leaked {
		t.Error("mutating a returned census map leaked into the memo")
	}
}
