package dataset

// Allocation pins for the zero-allocation ingest path — AddPath's
// cleaning of already-canonical and of prepended input, and its steady
// state on paths the dataset has already seen — and for the read
// cursor: Record into a warmed PathObs, and a whole Paths walk.

import (
	"fmt"
	"slices"
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
)

// addNoAlloc ingests raw until the dataset's scratch has settled, then
// requires a further observation of it to allocate nothing.
func addNoAlloc(t *testing.T, d *Dataset, raw []asrel.ASN) {
	t.Helper()
	for i := 0; i < 8; i++ {
		if err := d.AddPath(raw, nil, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.AddPath(raw, nil, 0, false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AddPath of a %d-hop path allocates %.1f objects/op, want 0", len(raw), allocs)
	}
}

// TestAddPathFastPathNoAlloc pins cleaning of canonical input — no
// prepending to collapse — at zero allocations, for a short path
// (pairwise loop check) and for one past cleanPathQuadraticMax hops
// (the reused map), and checks that loops hiding in clean-shaped paths
// are still rejected on both branches.
func TestAddPathFastPathNoAlloc(t *testing.T) {
	d := New(asrel.IPv4)
	raw := []asrel.ASN{10, 20, 30, 40, 50}
	addNoAlloc(t, d, raw)
	if err := d.AddPath([]asrel.ASN{1, 2, 3, 1}, nil, 0, false); err == nil {
		t.Error("loop in clean-shaped path accepted")
	}
	long := make([]asrel.ASN, cleanPathQuadraticMax+8)
	for i := range long {
		long[i] = asrel.ASN(i + 1)
	}
	addNoAlloc(t, d, long)
	looped := append(append([]asrel.ASN(nil), long...), long[0])
	if err := d.AddPath(looped, nil, 0, false); err == nil {
		t.Error("loop in long clean-shaped path accepted")
	}
	if d.NumUniquePaths() != 2 {
		t.Errorf("unique paths = %d, want 2", d.NumUniquePaths())
	}
}

// TestAddPathSlowPathKeepsRaw pins the other branch: prepended input
// collapses into the dataset's reused scratch — never in place, so the
// caller's slice is left as it was — without allocating once warm.
func TestAddPathSlowPathKeepsRaw(t *testing.T) {
	d := New(asrel.IPv4)
	raw := []asrel.ASN{1, 1, 2, 3}
	addNoAlloc(t, d, raw)
	if want := []asrel.ASN{1, 1, 2, 3}; !slices.Equal(raw, want) {
		t.Errorf("raw path modified to %v", raw)
	}
	if got := walk(d)[0].Path; !slices.Equal(got, []asrel.ASN{1, 2, 3}) {
		t.Errorf("collapsed path = %v", got)
	}
}

// TestAddPathDuplicateNoAlloc pins the dedup hot path: re-observing a
// path the dataset already holds costs a hash probe and a counter —
// zero allocations.
func TestAddPathDuplicateNoAlloc(t *testing.T) {
	d := New(asrel.IPv4)
	path := []asrel.ASN{1, 2, 3, 4}
	if err := d.AddPath(path, nil, 0, false); err != nil {
		t.Fatal(err)
	}
	// Warm-up duplicates so the table and scratch have settled.
	for i := 0; i < 8; i++ {
		if err := d.AddPath(path, nil, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.AddPath(path, nil, 0, false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("duplicate AddPath allocates %.1f objects/op, want 0", allocs)
	}
	if d.NumUniquePaths() != 1 {
		t.Fatalf("unique paths = %d, want 1", d.NumUniquePaths())
	}
}

// TestRecordNoAlloc pins the cursor: filling a warmed PathObs — one
// whose Path capacity already fits — allocates nothing, for an active
// record and for a released one alike.
func TestRecordNoAlloc(t *testing.T) {
	d := New(asrel.IPv4)
	comms := []bgp.Community{bgp.MakeCommunity(2, 100)}
	short, _, err := d.Retain([]asrel.ASN{1, 2, 3}, comms, 300, true)
	if err != nil {
		t.Fatal(err)
	}
	long, _, err := d.Retain([]asrel.ASN{4, 5, 6, 7, 8, 9, 10}, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	d.Release(long)
	var p PathObs
	d.Record(long, &p)
	allocs := testing.AllocsPerRun(100, func() {
		d.Record(short, &p)
		d.Record(long, &p)
	})
	if allocs != 0 {
		t.Errorf("Record into a warmed PathObs allocates %.1f objects/op, want 0", allocs)
	}
	d.Record(short, &p)
	if !slices.Equal(p.Path, []asrel.ASN{1, 2, 3}) || p.Vantage != 1 || !slices.Equal(p.Communities, comms) || p.LocPrf != 300 || !p.HasLocPrf {
		t.Errorf("Record(%d) = %+v", short, p)
	}
	d.Record(long, &p)
	if !slices.Equal(p.Path, []asrel.ASN{4, 5, 6, 7, 8, 9, 10}) || p.Communities != nil || p.HasLocPrf {
		t.Errorf("Record of a released record = %+v", p)
	}
}

// TestPathsWalkAllocsConstant pins a whole warmed Paths walk at the
// same small number of allocations — the walk's closure and its one
// PathObs with the path scratch — whether it yields 100 records or
// 10,000: nothing is allocated per record.
func TestPathsWalkAllocsConstant(t *testing.T) {
	walkAllocs := func(n int) float64 {
		d := New(asrel.IPv4)
		for i := 0; i < n; i++ {
			path := []asrel.ASN{asrel.ASN(1 + i%7), asrel.ASN(100 + i), asrel.ASN(20000 + i)}
			if err := d.AddPath(path, nil, 0, false); err != nil {
				t.Fatal(err)
			}
		}
		seen := 0
		for range d.Paths() { // warm: extends the canonical order
			seen++
		}
		if seen != n {
			t.Fatalf("walk of %d records yields %d", n, seen)
		}
		return testing.AllocsPerRun(20, func() {
			for p := range d.Paths() {
				if len(p.Path) != 3 {
					panic(fmt.Sprintf("path %v", p.Path))
				}
			}
		})
	}
	small, large := walkAllocs(100), walkAllocs(10_000)
	t.Logf("warmed walk allocations: %.1f at 100 records, %.1f at 10,000", small, large)
	if small != large || large > 4 {
		t.Errorf("a warmed Paths walk allocates %.1f objects at 100 records and %.1f at 10,000; want the same, at most 4", small, large)
	}
}
