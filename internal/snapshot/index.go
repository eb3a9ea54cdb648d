package snapshot

// The serving index: what internal/serve needs beyond the products
// themselves to answer per-link and per-AS queries without scanning.
// It is a pure function of the link sets, the relationship tables and
// the hybrid list, built here by the one linear builder below. Format
// v3 stores it as sections of the artifact, so Map aliases it in place
// and installing a mapped snapshot costs no index work at all;
// snapshots without a stored index (Capture, Read of v1/v2, Map of a
// v2 file) build it at most once, on first use. Strict Read rejects a
// v3 artifact whose stored index differs from the builder's output.
//
// Every accessor bounds-checks what it reads from the index: a
// corrupt mapped index (offsets past the end, non-monotone offsets,
// hybrid positions past the list) yields empty runs and wrong or
// missing answers, never a panic.

import (
	"cmp"
	"slices"
	"sync"

	"hybridrel/internal/asrel"
	"hybridrel/internal/core"
	"hybridrel/internal/intern"
)

// Flag bits of a Neighbor.
const (
	nbrV4     uint8 = 1 << 0 // observed in the IPv4 link set
	nbrV6     uint8 = 1 << 1 // observed in the IPv6 link set
	nbrHybrid uint8 = 1 << 2 // on the hybrid list
)

// numClassRuns is the number of per-class runs: one per HybridClass
// value, NotHybrid included, so a class is its own run number.
const numClassRuns = int(asrel.HybridOther) + 1

// Neighbor is one adjacency in the serving index, seen from the AS
// whose run holds it: the neighbouring AS, the planes in which the
// link was observed, both planes' relationships oriented from the AS
// to the neighbour, and the link's hybrid verdict. Its layout is the
// 8-byte record of the v3 neighbour section.
type Neighbor struct {
	ASN        asrel.ASN
	flags      uint8
	rel4, rel6 asrel.Rel
	class      asrel.HybridClass
}

// In4 reports whether the link was observed in the IPv4 plane.
func (n Neighbor) In4() bool { return n.flags&nbrV4 != 0 }

// In6 reports whether the link was observed in the IPv6 plane.
func (n Neighbor) In6() bool { return n.flags&nbrV6 != 0 }

// Rel4 returns the link's IPv4 relationship from the AS to the
// neighbour: what Rel4.Get(as, neighbour) returns.
func (n Neighbor) Rel4() asrel.Rel { return n.rel4 }

// Rel6 returns the link's IPv6 relationship from the AS to the
// neighbour.
func (n Neighbor) Rel6() asrel.Rel { return n.rel6 }

// Hybrid reports whether the link is on the hybrid list, and its class.
func (n Neighbor) Hybrid() (asrel.HybridClass, bool) { return n.class, n.flags&nbrHybrid != 0 }

// Index is the serving index of one snapshot: a view over either heap
// arrays or the sections of a mapped v3 file. It is immutable and safe
// for concurrent readers.
type Index struct {
	// asns lists every AS in either plane's link set, ascending.
	asns []asrel.ASN
	// nbrOff holds len(asns)+1 offsets into nbrs: AS i's adjacency is
	// nbrs[nbrOff[i]:nbrOff[i+1]], ascending by neighbour ASN.
	nbrOff []uint32
	nbrs   []Neighbor
	// classOff holds numClassRuns+1 offsets into classIdx: class c's
	// hybrids, in list order, are classIdx[classOff[c]:classOff[c+1]].
	classOff []uint32
	classIdx []uint32
	// hybOff holds len(asns)+1 offsets into hybIdx: the list positions
	// of AS i's hybrid links, in list order.
	hybOff []uint32
	hybIdx []uint32

	// hybrids is the snapshot's hybrid list, which the positions above
	// index.
	hybrids []core.HybridLink
}

// indexState holds a snapshot's lazily built serving index.
type indexState struct {
	once sync.Once
	idx  *Index
}

// Index returns the snapshot's serving index. A mapped v3 snapshot
// carries it in the file; any other snapshot builds it on the first
// call, once. The snapshot's products must not change afterwards.
func (s *Snapshot) Index() *Index {
	s.index.once.Do(func() {
		if s.index.idx == nil {
			s.index.idx = buildIndex(s)
		}
	})
	return s.index.idx
}

// NumASes returns the number of distinct ASes in either plane.
func (ix *Index) NumASes() int { return len(ix.asns) }

// LookupAS returns the index position of asn.
//
//hybridrel:hotpath
func (ix *Index) LookupAS(asn asrel.ASN) (int, bool) {
	return slices.BinarySearch(ix.asns, asn)
}

// Neighbors returns the adjacency of the AS at position i, ascending
// by neighbour ASN.
//
//hybridrel:hotpath
func (ix *Index) Neighbors(i int) []Neighbor { return indexRun(ix.nbrs, ix.nbrOff, i) }

// Link returns the link {a, b} as seen from a, if either plane
// observed it: a search of the AS array, then of a's adjacency.
//
//hybridrel:hotpath
func (ix *Index) Link(a, b asrel.ASN) (Neighbor, bool) {
	i, ok := ix.LookupAS(a)
	if !ok {
		return Neighbor{}, false
	}
	nbrs := ix.Neighbors(i)
	lo, hi := 0, len(nbrs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if nbrs[m].ASN < b {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(nbrs) && nbrs[lo].ASN == b {
		return nbrs[lo], true
	}
	return Neighbor{}, false
}

// ASHybrids returns the hybrid-list positions of the hybrid links of
// the AS at position i, in list order.
//
//hybridrel:hotpath
func (ix *Index) ASHybrids(i int) []uint32 { return indexRun(ix.hybIdx, ix.hybOff, i) }

// ClassHybrids returns the hybrid-list positions of class cl's
// hybrids, in list order.
//
//hybridrel:hotpath
func (ix *Index) ClassHybrids(cl asrel.HybridClass) []uint32 {
	return indexRun(ix.classIdx, ix.classOff, int(cl))
}

// Hybrid returns the hybrid at list position p; ok is false when p is
// past the list, which only a corrupt index produces.
//
//hybridrel:hotpath
func (ix *Index) Hybrid(p uint32) (h core.HybridLink, ok bool) {
	if uint64(p) >= uint64(len(ix.hybrids)) {
		return core.HybridLink{}, false
	}
	return ix.hybrids[p], true
}

// indexRun returns vals[off[i]:off[i+1]], or nil when i or the stored
// offsets are out of range or out of order.
//
//hybridrel:hotpath
func indexRun[T any](vals []T, off []uint32, i int) []T {
	if i < 0 || i+1 >= len(off) {
		return nil
	}
	lo, hi := off[i], off[i+1]
	if lo > hi || uint64(hi) > uint64(len(vals)) {
		return nil
	}
	return vals[lo:hi]
}

// LookupLink returns the visibility of link k in the canonical-order
// link set ls: one binary search.
//
//hybridrel:hotpath
func LookupLink(ls []Link, k asrel.LinkKey) (vis int, ok bool) {
	u := intern.Pack(k)
	lo, hi := 0, len(ls)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if intern.Pack(ls[m].Key) < u {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(ls) && ls[lo].Key == k {
		return ls[lo].Visibility, true
	}
	return 0, false
}

// buildIndex is the index builder. A two-pointer merge of the two
// planes' canonical link sets makes one union with plane bits; merge
// walks in the same order against both relationship tables and the
// key-sorted hybrid list attach each link's relationships and hybrid
// verdict. Each link's reverse edge is then keyed hi<<32 | position
// and grouped by one ordered sort. Because the union is in (lo, hi)
// order, an AS's reverse edges come out ascending by lo, all below its
// forward edges, so emitting reverse then forward gives each AS its
// ascending adjacency with no comparator sort. Input that breaks the
// canonical order (a corrupt v2 mapping) yields a wrong index, never a
// panic.
func buildIndex(s *Snapshot) *Index {
	l4, l6 := s.Links4, s.Links6
	keys := make([]uint64, 0, len(l4)+len(l6))
	flags := make([]uint8, 0, cap(keys))
	add := func(u uint64, f uint8) {
		if n := len(keys); n > 0 && keys[n-1] == u {
			flags[n-1] |= f // a duplicate record: merge, as one link
			return
		}
		keys = append(keys, u)
		flags = append(flags, f)
	}
	for i, j := 0, 0; i < len(l4) || j < len(l6); {
		switch {
		case j == len(l6):
			add(intern.Pack(l4[i].Key), nbrV4)
			i++
		case i == len(l4):
			add(intern.Pack(l6[j].Key), nbrV6)
			j++
		default:
			u4, u6 := intern.Pack(l4[i].Key), intern.Pack(l6[j].Key)
			switch {
			case u4 < u6:
				add(u4, nbrV4)
				i++
			case u6 < u4:
				add(u6, nbrV6)
				j++
			default:
				add(u4, nbrV4|nbrV6)
				i++
				j++
			}
		}
	}

	// Forward records: lo's view of each link, relationships Lo→Hi.
	fwd := make([]Neighbor, len(keys))
	for x, u := range keys {
		fwd[x] = Neighbor{ASN: asrel.ASN(u), flags: flags[x]}
	}
	walkTable(keys, s.Rel4, func(x int, r asrel.Rel) { fwd[x].rel4 = r })
	walkTable(keys, s.Rel6, func(x int, r asrel.Rel) { fwd[x].rel6 = r })
	hs := s.Hybrids
	byKey := make([]uint32, len(hs))
	for p := range byKey {
		byKey[p] = uint32(p)
	}
	slices.SortFunc(byKey, func(x, y uint32) int {
		return cmp.Or(cmp.Compare(intern.Pack(hs[x].Key), intern.Pack(hs[y].Key)), cmp.Compare(x, y))
	})
	for x, j := 0, 0; x < len(keys) && j < len(byKey); {
		h := hs[byKey[j]]
		switch u := intern.Pack(h.Key); {
		case u < keys[x]:
			j++
		case u > keys[x]:
			x++
		default:
			fwd[x].flags |= nbrHybrid
			fwd[x].class = h.Class
			x++
		}
	}

	rev := make([]uint64, 0, len(keys))
	for x, u := range keys {
		if lo, hi := u>>32, u&0xffffffff; lo != hi {
			rev = append(rev, hi<<32|uint64(x))
		}
	}
	slices.Sort(rev)

	ix := &Index{
		nbrs:    make([]Neighbor, 0, len(keys)+len(rev)),
		hybrids: hs,
	}
	for f, r := 0, 0; f < len(keys) || r < len(rev); {
		var a uint64
		switch {
		case r == len(rev):
			a = keys[f] >> 32
		case f == len(keys):
			a = rev[r] >> 32
		default:
			a = min(keys[f]>>32, rev[r]>>32)
		}
		ix.asns = append(ix.asns, asrel.ASN(a))
		ix.nbrOff = append(ix.nbrOff, uint32(len(ix.nbrs)))
		for ; r < len(rev) && rev[r]>>32 == a; r++ {
			x := uint32(rev[r])
			n := fwd[x]
			n.ASN = asrel.ASN(keys[x] >> 32)
			n.rel4, n.rel6 = n.rel4.Invert(), n.rel6.Invert()
			ix.nbrs = append(ix.nbrs, n)
		}
		for ; f < len(keys) && keys[f]>>32 == a; f++ {
			ix.nbrs = append(ix.nbrs, fwd[f])
		}
	}
	ix.nbrOff = append(ix.nbrOff, uint32(len(ix.nbrs)))

	// Class runs and per-AS membership runs: a counting pass sizes each
	// run, prefix sums turn counts into offsets, and a fill pass in list
	// order keeps every run in list order. A class code past the known
	// ones (a corrupt v2 mapping) belongs to no run.
	ix.classOff = make([]uint32, numClassRuns+1)
	ix.hybOff = make([]uint32, len(ix.asns)+1)
	endpoints := func(h core.HybridLink, fn func(i int)) {
		for _, end := range [2]asrel.ASN{h.Key.Lo, h.Key.Hi} {
			if i, ok := slices.BinarySearch(ix.asns, end); ok {
				fn(i)
			}
		}
	}
	for _, h := range hs {
		if int(h.Class) < numClassRuns {
			ix.classOff[h.Class+1]++
		}
		endpoints(h, func(i int) { ix.hybOff[i+1]++ })
	}
	for i := 1; i < len(ix.classOff); i++ {
		ix.classOff[i] += ix.classOff[i-1]
	}
	for i := 1; i < len(ix.hybOff); i++ {
		ix.hybOff[i] += ix.hybOff[i-1]
	}
	ix.classIdx = make([]uint32, ix.classOff[numClassRuns])
	ix.hybIdx = make([]uint32, ix.hybOff[len(ix.asns)])
	classAt := slices.Clone(ix.classOff[:numClassRuns])
	hybAt := slices.Clone(ix.hybOff[:len(ix.asns)])
	for p, h := range hs {
		if int(h.Class) < numClassRuns {
			ix.classIdx[classAt[h.Class]] = uint32(p)
			classAt[h.Class]++
		}
		endpoints(h, func(i int) {
			ix.hybIdx[hybAt[i]] = uint32(p)
			hybAt[i]++
		})
	}
	return ix
}

// walkTable calls fn(x, r) for every keys[x] that t records, with its
// Lo→Hi relationship: a merge walk, both sides ascending.
func walkTable(keys []uint64, t *intern.Table, fn func(x int, r asrel.Rel)) {
	if t == nil {
		return
	}
	tk, tr := t.PackedKeys(), t.Rels()
	for x, j := 0, 0; x < len(keys) && j < len(tk) && j < len(tr); {
		switch {
		case tk[j] < keys[x]:
			j++
		case tk[j] > keys[x]:
			x++
		default:
			fn(x, tr[j])
			x++
			j++
		}
	}
}
