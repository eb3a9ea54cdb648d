package dataset

// Concurrency test for the lazily-built derived state: the first query
// after ingest folds the pending link occurrences into the frozen flat
// index and extends the canonical path order, and any number of
// goroutines may trigger that fold simultaneously. Each Paths walk
// fills its own PathObs, so concurrent walks must each read every
// record intact. Mirrors core's analysis race test; run under -race in
// CI.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
)

func TestConcurrentFirstFlatAccess(t *testing.T) {
	build := func() *Dataset {
		d := New(asrel.IPv4)
		for v := asrel.ASN(100); v < 140; v++ {
			path := []asrel.ASN{v, 2, 3, asrel.ASN(200 + v%7)}
			comms := []bgp.Community{bgp.MakeCommunity(uint16(v), uint16(v%5))}
			if err := d.AddPath(path, comms, uint32(v), v%2 == 0); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}

	// Reference values from a sequential run.
	ref := build()
	wantLinks := ref.NumLinks()
	wantVis := ref.LinkVisibility(asrel.Key(2, 3))
	wantPaths := walk(ref)

	// Fresh dataset: nothing folded or ordered yet; every accessor
	// races on the first freeze.
	d := build()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers*5)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := d.NumLinks(); got != wantLinks {
				errs <- "NumLinks mismatch"
			}
			if got := d.LinkVisibility(asrel.Key(2, 3)); got != wantVis {
				errs <- "LinkVisibility mismatch"
			}
			i := 0
			for p := range d.Paths() {
				if i >= len(wantPaths) || !reflect.DeepEqual(*p, wantPaths[i]) {
					errs <- fmt.Sprintf("Paths record %d = %+v", i, *p)
					break
				}
				i++
			}
			if i != len(wantPaths) {
				errs <- fmt.Sprintf("Paths yields %d records, want %d", i, len(wantPaths))
			}
			n := 0
			d.EachLink(func(asrel.LinkKey, int) { n++ })
			if n != wantLinks {
				errs <- "EachLink count mismatch"
			}
			if d.Flat() == nil {
				errs <- "nil Flat"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
