package dataset

import (
	"cmp"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"hybridrel/internal/asrel"
)

// refCompare is the canonical path order spelled out: lexicographic by
// AS number, a path before every path it is a proper prefix of.
func refCompare(a, b []asrel.ASN) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return cmp.Compare(a[i], b[i])
		}
	}
	return cmp.Compare(len(a), len(b))
}

// orderUniverse returns n distinct ASNs, always including 0 and
// 2³²−1 once n allows, spread over the whole 32-bit range.
func orderUniverse(rng *rand.Rand, n int) []asrel.ASN {
	seen := make(map[asrel.ASN]bool, n)
	out := make([]asrel.ASN, 0, n)
	add := func(a asrel.ASN) {
		if len(out) < n && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	add(math.MaxUint32)
	add(0)
	for len(out) < n {
		if rng.Intn(2) == 0 {
			add(asrel.ASN(rng.Intn(4 * n)))
		} else {
			add(asrel.ASN(rng.Uint32()))
		}
	}
	return out
}

// orderPaths returns loop-free paths over universe: random paths, each
// path's proper prefixes, and variants sharing a long head — about one
// or two key windows of hops where the universe allows — so ties on the
// packed keys must be broken by the hops beyond them.
func orderPaths(rng *rand.Rand, universe []asrel.ASN, hops int) [][]asrel.ASN {
	extend := func(head []asrel.ASN, length int) []asrel.ASN {
		p := append([]asrel.ASN(nil), head...)
		for _, i := range rng.Perm(len(universe)) {
			if len(p) >= length {
				break
			}
			on := false
			for _, a := range p {
				on = on || a == universe[i]
			}
			if !on {
				p = append(p, universe[i])
			}
		}
		return p
	}
	maxLen := min(len(universe), 2*hops+8)
	var out [][]asrel.ASN
	for range 40 {
		base := extend(nil, 1+rng.Intn(maxLen))
		out = append(out, base)
		for cut := 1; cut < len(base); cut++ {
			if rng.Intn(3) == 0 {
				out = append(out, base[:cut:cut])
			}
		}
		for range 4 {
			keep := min(len(base), max(1, (1+rng.Intn(2))*hops-1+rng.Intn(3)))
			out = append(out, extend(base[:keep:keep], keep+1+rng.Intn(maxLen)))
		}
	}
	// Every ASN on some path, so the interner holds exactly the universe.
	for _, a := range universe {
		out = append(out, []asrel.ASN{a})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// checkCanonical asserts paths is strictly ascending under refCompare
// and holds exactly the distinct paths of want.
func checkCanonical(t *testing.T, label string, got []PathObs, want [][]asrel.ASN) {
	t.Helper()
	distinct := make(map[string]bool)
	for _, p := range want {
		distinct[pathString(p)] = true
	}
	if len(got) != len(distinct) {
		t.Fatalf("%s: %d paths, want %d distinct", label, len(got), len(distinct))
	}
	for i, p := range got {
		if !distinct[pathString(p.Path)] {
			t.Fatalf("%s: path %v was never added", label, p.Path)
		}
		if i > 0 && refCompare(got[i-1].Path, p.Path) >= 0 {
			t.Fatalf("%s: paths %d and %d out of order: %v then %v", label, i-1, i, got[i-1].Path, p.Path)
		}
	}
}

func pathString(p []asrel.ASN) string {
	b := make([]byte, 0, 4*len(p))
	for _, a := range p {
		b = append(b, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
	}
	return string(b)
}

// TestCanonicalOrderMatchesComparator checks the rank-keyed sort behind
// Paths() and Freeze against the canonical order written out as a
// comparator, on interner sizes either side of each key-width step
// (2ᵏ−1, 2ᵏ, 2ᵏ+1), with ASNs 0 and 2³²−1, paths that are prefixes of
// others, and paths that tie on every hop the packed key holds.
func TestCanonicalOrderMatchesComparator(t *testing.T) {
	for _, n := range []int{1, 2, 3, 15, 16, 17, 127, 128, 129, 255, 256, 257, 1023, 1024, 1025} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
			universe := orderUniverse(rng, n)
			hops := 64 / bits.Len(uint(n))
			paths := orderPaths(rng, universe, hops)

			d := New(asrel.IPv4)
			for _, p := range paths {
				if err := d.AddPath(p, nil, 0, false); err != nil {
					t.Fatalf("n=%d: AddPath(%v): %v", n, p, err)
				}
			}
			if d.in.Len() != n {
				t.Fatalf("n=%d: interner holds %d ASNs", n, d.in.Len())
			}
			if n > 1 && d.sorted {
				t.Fatalf("n=%d seed=%d: shuffled input left the dataset sorted; the sort is not exercised", n, seed)
			}
			for _, tie := range []int{hops, 2 * hops} {
				if n > tie && !tiesBeyondKey(walk(d), tie) {
					t.Fatalf("n=%d seed=%d: no two paths agree on the first %d hops; the tie-break is not exercised", n, seed, tie)
				}
			}
			checkCanonical(t, "unfrozen", walk(d), paths)
			d.Freeze()
			if !d.sorted {
				t.Fatal("Freeze left the dataset unsorted")
			}
			checkCanonical(t, "frozen", walk(d), paths)
		}
	}
}

// tiesBeyondKey reports whether two adjacent paths, both longer than
// n hops, agree on their first n hops.
func tiesBeyondKey(paths []PathObs, n int) bool {
	for i := 1; i < len(paths); i++ {
		a, b := paths[i-1].Path, paths[i].Path
		if len(a) > n && len(b) > n && refCompare(a[:n], b[:n]) == 0 {
			return true
		}
	}
	return false
}
