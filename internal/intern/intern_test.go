package intern

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hybridrel/internal/asrel"
)

// randTable builds a random asrel.Table over a bounded AS space so
// collisions (and therefore overlaps between tables) are common.
func randTable(rng *rand.Rand, n int) *asrel.Table {
	t := asrel.NewTable()
	for i := 0; i < n; i++ {
		a := asrel.ASN(rng.Intn(200) + 1)
		b := asrel.ASN(rng.Intn(200) + 1)
		if a == b {
			continue
		}
		t.Set(a, b, asrel.Rel(rng.Intn(5)))
	}
	return t
}

func TestInterner(t *testing.T) {
	in := NewInterner()
	if id := in.Intern(64500); id != 0 {
		t.Fatalf("first ID = %d, want 0", id)
	}
	if id := in.Intern(64501); id != 1 {
		t.Fatalf("second ID = %d, want 1", id)
	}
	if id := in.Intern(64500); id != 0 {
		t.Fatalf("re-intern changed the ID to %d", id)
	}
	if id, ok := in.Lookup(64501); !ok || id != 1 {
		t.Fatalf("Lookup(64501) = %d, %v", id, ok)
	}
	if _, ok := in.Lookup(99); ok {
		t.Fatal("Lookup invented an ID")
	}
	if in.Len() != 2 || in.ASN(0) != 64500 || in.ASN(1) != 64501 {
		t.Fatalf("interner state wrong: len %d", in.Len())
	}
}

func TestPackRoundTrip(t *testing.T) {
	for _, k := range []asrel.LinkKey{
		{Lo: 0, Hi: 0}, {Lo: 1, Hi: 2}, {Lo: 0xffffffff, Hi: 0xffffffff},
		{Lo: 64500, Hi: 4200000000},
	} {
		if got := Unpack(Pack(k)); got != k {
			t.Fatalf("Pack/Unpack(%v) = %v", k, got)
		}
	}
	// Packed order must equal the canonical (Lo, Hi) order.
	a := Pack(asrel.LinkKey{Lo: 1, Hi: 0xffffffff})
	b := Pack(asrel.LinkKey{Lo: 2, Hi: 0})
	if a >= b {
		t.Fatal("packed keys do not sort in canonical order")
	}
}

// TestFlatTableMatchesMap is the core differential: every query the
// flat table answers must agree with the map table it froze — Get,
// GetKey and Has, in both orientations, for every stored link and for
// absent ones.
func TestFlatTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m := randTable(rng, 300)
		f := FromTable(m)
		if f.Len() != m.Len() {
			t.Fatalf("Len %d vs %d", f.Len(), m.Len())
		}
		agree := func(a, b asrel.ASN) {
			t.Helper()
			k := asrel.Key(a, b)
			if f.GetKey(k) != m.GetKey(k) {
				t.Fatalf("GetKey(%s): flat %s, map %s", k, f.GetKey(k), m.GetKey(k))
			}
			if f.Get(a, b) != m.Get(a, b) || f.Get(b, a) != m.Get(b, a) {
				t.Fatalf("Get orientation mismatch on %s: flat %s/%s, map %s/%s",
					k, f.Get(a, b), f.Get(b, a), m.Get(a, b), m.Get(b, a))
			}
			if f.Has(a, b) != m.Has(a, b) || f.Has(b, a) != m.Has(b, a) {
				t.Fatalf("Has mismatch on %s: flat %v/%v, map %v/%v",
					k, f.Has(a, b), f.Has(b, a), m.Has(a, b), m.Has(b, a))
			}
		}
		for _, k := range m.Keys() {
			agree(k.Lo, k.Hi)
		}
		// Probe links over a wider AS space, most of them absent.
		absent := 0
		for i := 0; i < 200; i++ {
			a := asrel.ASN(rng.Intn(400) + 1)
			b := asrel.ASN(rng.Intn(400) + 1)
			if a == b {
				continue
			}
			if !m.Has(a, b) {
				absent++
			}
			agree(a, b)
		}
		if absent == 0 {
			t.Fatal("no absent link was probed")
		}
		// Each iterates ascending and covers everything.
		var prev uint64
		n := 0
		f.Each(func(k asrel.LinkKey, r asrel.Rel) {
			u := Pack(k)
			if n > 0 && u <= prev {
				t.Fatal("Each iteration not strictly ascending")
			}
			prev = u
			if m.GetKey(k) != r {
				t.Fatalf("Each(%s) = %s, map has %s", k, r, m.GetKey(k))
			}
			n++
		})
		if n != m.Len() {
			t.Fatalf("Each visited %d of %d", n, m.Len())
		}
	}
}

// TestMergeMatchesMapMerge pins the two-pointer merge against the
// reference clone-and-overlay implementation.
func TestMergeMatchesMapMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		base := randTable(rng, 150)
		add := randTable(rng, 150)
		// Plant explicit stored-Unknown entries in base: additions must
		// override them, exactly as the map merge does.
		base.SetKey(asrel.Key(7, 9), asrel.Unknown)
		add.SetKey(asrel.Key(7, 9), asrel.P2P)

		want := base.Clone()
		add.Links(func(k asrel.LinkKey, r asrel.Rel) {
			if !want.GetKey(k).Known() {
				want.SetKey(k, r)
			}
		})

		got := Merge(FromTable(base), FromTable(add))
		if got.Len() != want.Len() {
			t.Fatalf("merged len %d, want %d", got.Len(), want.Len())
		}
		got.Each(func(k asrel.LinkKey, r asrel.Rel) {
			if want.GetKey(k) != r {
				t.Fatalf("merge(%s) = %s, reference %s", k, r, want.GetKey(k))
			}
		})
	}
}

// TestPatchMatchesMapEdits pins Patch against the same edits applied
// to a mutable table and then frozen: SetKey for a known relationship,
// Delete for Unknown.
func TestPatchMatchesMapEdits(t *testing.T) {
	rel := func(pairs ...any) *asrel.Table {
		out := asrel.NewTable()
		for i := 0; i < len(pairs); i += 2 {
			out.SetKey(pairs[i].(asrel.LinkKey), pairs[i+1].(asrel.Rel))
		}
		return out
	}
	k12, k13, k24, k35 := asrel.Key(1, 2), asrel.Key(1, 3), asrel.Key(2, 4), asrel.Key(3, 5)
	base := rel(k12, asrel.P2C, k13, asrel.P2P, k35, asrel.C2P)
	for _, tc := range []struct {
		name        string
		base, edits *asrel.Table
	}{
		{"insert", base, rel(k24, asrel.S2S)},
		{"overwrite", base, rel(k13, asrel.C2P)},
		{"delete by Unknown", base, rel(k12, asrel.Unknown)},
		{"delete absent link", base, rel(k24, asrel.Unknown)},
		{"mixed", base, rel(k12, asrel.Unknown, k13, asrel.P2C, k24, asrel.P2P, k35, asrel.Unknown)},
		{"onto empty table", asrel.NewTable(), rel(k12, asrel.P2C, k24, asrel.Unknown, k35, asrel.P2P)},
		{"empty patch", base, asrel.NewTable()},
		{"random", randTable(rand.New(rand.NewSource(4)), 300), randTable(rand.New(rand.NewSource(5)), 100)},
	} {
		want := tc.base.Clone()
		tc.edits.Links(func(k asrel.LinkKey, r asrel.Rel) {
			if r.Known() {
				want.SetKey(k, r)
			} else {
				want.Delete(k.Lo, k.Hi)
			}
		})
		before := FromTable(tc.base)
		got := Patch(before, FromTable(tc.edits))
		if !reflect.DeepEqual(got, FromTable(want)) {
			t.Errorf("%s: Patch gives %d links, map edits %d", tc.name, got.Len(), want.Len())
		}
		if !reflect.DeepEqual(before, FromTable(tc.base)) {
			t.Errorf("%s: Patch modified its base", tc.name)
		}
	}
}

func TestTableBuilderRejectsDisorder(t *testing.T) {
	var b TableBuilder
	if err := b.Append(asrel.LinkKey{Lo: 1, Hi: 2}, asrel.P2C); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(asrel.LinkKey{Lo: 1, Hi: 3}, asrel.P2P); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(asrel.LinkKey{Lo: 1, Hi: 3}, asrel.P2P); err == nil {
		t.Fatal("duplicate key accepted")
	}
	var b2 TableBuilder
	_ = b2.Append(asrel.LinkKey{Lo: 5, Hi: 6}, asrel.P2C)
	if err := b2.Append(asrel.LinkKey{Lo: 1, Hi: 2}, asrel.P2C); err == nil {
		t.Fatal("descending key accepted")
	}
}

func TestCountsMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		var seq []asrel.LinkKey
		ref := make(map[asrel.LinkKey]int)
		for i := 0; i < 500; i++ {
			k := asrel.Key(asrel.ASN(rng.Intn(60)+1), asrel.ASN(rng.Intn(60)+2))
			if k.Lo == k.Hi {
				continue
			}
			seq = append(seq, k)
			ref[k]++
		}
		c := BuildCounts(seq)
		if c.Len() != len(ref) {
			t.Fatalf("Len %d vs %d", c.Len(), len(ref))
		}
		for k, n := range ref {
			if c.Get(k) != n {
				t.Fatalf("Get(%s) = %d, want %d", k, c.Get(k), n)
			}
			if !c.Has(k) {
				t.Fatalf("Has(%s) = false", k)
			}
		}
		if c.Get(asrel.Key(4000, 4001)) != 0 || c.Has(asrel.Key(4000, 4001)) {
			t.Fatal("absent link reported present")
		}
		keys := c.Keys()
		if !sort.SliceIsSorted(keys, func(i, j int) bool { return Pack(keys[i]) < Pack(keys[j]) }) {
			t.Fatal("Keys not in canonical order")
		}
	}
}

// TestMergeCountsMatchesRebuild pins the incremental fold against a
// from-scratch rebuild of the concatenated sequences.
func TestMergeCountsMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		mk := func(n int) []asrel.LinkKey {
			var seq []asrel.LinkKey
			for i := 0; i < n; i++ {
				k := asrel.Key(asrel.ASN(rng.Intn(50)+1), asrel.ASN(rng.Intn(50)+2))
				if k.Lo != k.Hi {
					seq = append(seq, k)
				}
			}
			return seq
		}
		seqA, seqB := mk(rng.Intn(300)), mk(rng.Intn(300))
		got := MergeCounts(BuildCounts(seqA), BuildCounts(seqB))
		want := BuildCounts(append(append([]asrel.LinkKey(nil), seqA...), seqB...))
		if got.Len() != want.Len() {
			t.Fatalf("merged Len %d, rebuilt %d", got.Len(), want.Len())
		}
		want.Each(func(k asrel.LinkKey, n int) {
			if got.Get(k) != n {
				t.Fatalf("merged Get(%s) = %d, rebuilt %d", k, got.Get(k), n)
			}
		})
	}
	// Either side empty passes the other through unchanged.
	one := BuildCounts([]asrel.LinkKey{asrel.Key(1, 2)})
	if MergeCounts(one, BuildCounts(nil)).Len() != 1 || MergeCounts(BuildCounts(nil), one).Len() != 1 {
		t.Fatal("empty-side merge lost entries")
	}
}

// TestJoinMatchesMapJoin pins the two-pointer intersection against the
// map-probing reference (iterate the smaller side's sorted keys, probe
// the larger side's map).
func TestJoinMatchesMapJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		mk := func(n int) ([]asrel.LinkKey, map[asrel.LinkKey]int) {
			var seq []asrel.LinkKey
			ref := make(map[asrel.LinkKey]int)
			for i := 0; i < n; i++ {
				k := asrel.Key(asrel.ASN(rng.Intn(80)+1), asrel.ASN(rng.Intn(80)+2))
				if k.Lo == k.Hi {
					continue
				}
				seq = append(seq, k)
				ref[k]++
			}
			return seq, ref
		}
		seqA, refA := mk(300)
		seqB, refB := mk(100)
		a, b := BuildCounts(seqA), BuildCounts(seqB)

		small, large := refA, refB
		if len(small) > len(large) {
			small, large = large, small
		}
		var want []asrel.LinkKey
		for _, k := range mapKeysSorted(small) {
			if large[k] > 0 {
				want = append(want, k)
			}
		}
		if got := Join(a, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("Join = %v, want %v", got, want)
		}
		if got := Join(b, a); !reflect.DeepEqual(got, want) {
			t.Fatal("Join is not symmetric")
		}
	}
}

func mapKeysSorted(m map[asrel.LinkKey]int) []asrel.LinkKey {
	out := make([]asrel.LinkKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return Pack(out[i]) < Pack(out[j]) })
	return out
}

func TestSweepMatchesGetKey(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	t4 := randTable(rng, 200)
	t6 := randTable(rng, 200)
	f4, f6 := FromTable(t4), FromTable(t6)
	// Sweep over a sorted key list that includes hits and misses.
	var seq []asrel.LinkKey
	t4.Links(func(k asrel.LinkKey, _ asrel.Rel) { seq = append(seq, k) })
	t6.Links(func(k asrel.LinkKey, _ asrel.Rel) { seq = append(seq, k) })
	seq = append(seq, asrel.Key(900, 901), asrel.Key(1, 999))
	keys := BuildCounts(seq).Keys()

	n := 0
	Sweep(keys, f4, f6, func(k asrel.LinkKey, r4, r6 asrel.Rel) {
		if r4 != t4.GetKey(k) || r6 != t6.GetKey(k) {
			t.Fatalf("Sweep(%s) = %s/%s, maps %s/%s", k, r4, r6, t4.GetKey(k), t6.GetKey(k))
		}
		n++
	})
	if n != len(keys) {
		t.Fatalf("Sweep visited %d of %d", n, len(keys))
	}
	// Nil tables act as all-Unknown.
	Sweep(keys[:3], nil, f6, func(k asrel.LinkKey, r4, r6 asrel.Rel) {
		if r4 != asrel.Unknown {
			t.Fatal("nil table produced a known relationship")
		}
	})
}

// csrFromLinks builds a CSR from an undirected link set, the shape the
// graph layer feeds CSRFromAdj.
func csrFromLinks(links []asrel.LinkKey) *CSR {
	adj := make(map[asrel.ASN][]asrel.ASN)
	for _, k := range links {
		adj[k.Lo] = append(adj[k.Lo], k.Hi)
		adj[k.Hi] = append(adj[k.Hi], k.Lo)
	}
	nodes := make([]asrel.ASN, 0, len(adj))
	for a := range adj {
		nodes = append(nodes, a)
	}
	return CSRFromAdj(nodes, func(a asrel.ASN) []asrel.ASN { return adj[a] })
}

// assertEdgeRels checks EdgeRels against a per-edge Get on every
// directed edge of c.
func assertEdgeRels(t *testing.T, c *CSR, tbl *asrel.Table) {
	t.Helper()
	rels := c.EdgeRels(FromTable(tbl))
	for i, a := range c.ASNs {
		for p := c.Off[i]; p < c.Off[i+1]; p++ {
			b := c.ASNs[c.Nbr[p]]
			if want := tbl.Get(a, b); rels[p] != want {
				t.Fatalf("EdgeRels(%s→%s) = %s, want %s", a, b, rels[p], want)
			}
		}
	}
}

// TestEdgeRelsMatchesGet holds the cursor-sweep annotation to a lookup
// per edge on random graphs whose links the table covers only in part
// (and whose table holds links the graph lacks).
func TestEdgeRelsMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		tbl := randTable(rng, 300)
		set := make(map[asrel.LinkKey]bool)
		for _, k := range tbl.Keys() {
			if rng.Intn(3) > 0 {
				set[k] = true
			}
		}
		for i := 0; i < 100; i++ {
			a, b := asrel.ASN(rng.Intn(250)+1), asrel.ASN(rng.Intn(250)+1)
			if a != b {
				set[asrel.Key(a, b)] = true
			}
		}
		links := make([]asrel.LinkKey, 0, len(set))
		for k := range set {
			links = append(links, k)
		}
		assertEdgeRels(t, csrFromLinks(links), tbl)
	}
}

func TestCSR(t *testing.T) {
	links := []asrel.LinkKey{
		asrel.Key(10, 20), asrel.Key(10, 30), asrel.Key(20, 30), asrel.Key(40, 10),
	}
	c := csrFromLinks(links)
	if c.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	// ASNs ascending.
	if !sort.SliceIsSorted(c.ASNs, func(i, j int) bool { return c.ASNs[i] < c.ASNs[j] }) {
		t.Fatal("ASNs not sorted")
	}
	i10, ok := c.Index(10)
	if !ok {
		t.Fatal("Index(10) missing")
	}
	if c.Degree(i10) != 3 {
		t.Fatalf("Degree(10) = %d, want 3", c.Degree(i10))
	}
	var got []asrel.ASN
	for _, n := range c.Neighbors(i10) {
		got = append(got, c.ASNs[n])
	}
	if !reflect.DeepEqual(got, []asrel.ASN{20, 30, 40}) {
		t.Fatalf("Neighbors(10) = %v", got)
	}
	if _, ok := c.Index(99); ok {
		t.Fatal("Index invented a node")
	}

	// EdgeRels aligns with Nbr, in both directions of every edge.
	tbl := asrel.NewTable()
	tbl.Set(10, 20, asrel.P2C)
	tbl.Set(10, 30, asrel.P2P)
	tbl.Set(30, 20, asrel.P2C)
	assertEdgeRels(t, c, tbl)

	// Isolated nodes survive CSRFromAdj.
	adj := map[asrel.ASN][]asrel.ASN{5: nil, 6: {7}, 7: {6}}
	c2 := CSRFromAdj([]asrel.ASN{5, 6, 7}, func(a asrel.ASN) []asrel.ASN { return adj[a] })
	if c2.NumNodes() != 3 {
		t.Fatalf("isolated node dropped: %d nodes", c2.NumNodes())
	}
	i5, ok := c2.Index(5)
	if !ok || c2.Degree(i5) != 0 {
		t.Fatal("isolated node has neighbors")
	}
}
