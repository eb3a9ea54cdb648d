package dataset

// Allocation pins for the zero-allocation ingest path: AddPath's
// cleaning of already-canonical and of prepended input, and its steady
// state on paths the dataset has already seen.

import (
	"net/netip"
	"slices"
	"testing"

	"hybridrel/internal/asrel"
)

// addNoAlloc ingests raw until the dataset's scratch has settled, then
// requires a further observation of it to allocate nothing.
func addNoAlloc(t *testing.T, d *Dataset, raw []asrel.ASN) {
	t.Helper()
	for i := 0; i < 8; i++ {
		if err := d.AddPath(raw, netip.Prefix{}, nil, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.AddPath(raw, netip.Prefix{}, nil, 0, false); err != nil {
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
	if err := d.AddPath([]asrel.ASN{1, 2, 3, 1}, netip.Prefix{}, nil, 0, false); err == nil {
		t.Error("loop in clean-shaped path accepted")
	}
	long := make([]asrel.ASN, cleanPathQuadraticMax+8)
	for i := range long {
		long[i] = asrel.ASN(i + 1)
	}
	addNoAlloc(t, d, long)
	looped := append(append([]asrel.ASN(nil), long...), long[0])
	if err := d.AddPath(looped, netip.Prefix{}, nil, 0, false); err == nil {
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
	if got := d.Paths()[0].Path; !slices.Equal(got, []asrel.ASN{1, 2, 3}) {
		t.Errorf("collapsed path = %v", got)
	}
}

// TestAddPathDuplicateNoAlloc pins the dedup hot path: re-observing a
// path the dataset already holds costs a hash probe and a counter —
// zero allocations.
func TestAddPathDuplicateNoAlloc(t *testing.T) {
	d := New(asrel.IPv4)
	path := []asrel.ASN{1, 2, 3, 4}
	if err := d.AddPath(path, netip.Prefix{}, nil, 0, false); err != nil {
		t.Fatal(err)
	}
	// Warm-up duplicates so the table and scratch have settled.
	for i := 0; i < 8; i++ {
		if err := d.AddPath(path, netip.Prefix{}, nil, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.AddPath(path, netip.Prefix{}, nil, 0, false); err != nil {
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
