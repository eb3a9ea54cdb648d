//go:build amd64 || arm64

package snapshot

import (
	"unsafe"

	"hybridrel/internal/asrel"
	"hybridrel/internal/core"
	"hybridrel/internal/intern"
)

// On these architectures (both little-endian with 64-bit int) the
// fixed-width records are byte-for-byte the Go in-memory layouts, so a
// mapped section is reinterpreted in place: no decode pass, no
// per-entry heap objects. The assertions below are compile errors the
// moment any struct layout drifts from the wire format — an array
// length mismatch does not build.
var (
	_ [16]byte = [unsafe.Sizeof(Link{})]byte{}
	_ [8]byte  = [unsafe.Offsetof(Link{}.Visibility)]byte{}
	_ [24]byte = [unsafe.Sizeof(core.HybridLink{})]byte{}
	_ [8]byte  = [unsafe.Offsetof(core.HybridLink{}.V4)]byte{}
	_ [9]byte  = [unsafe.Offsetof(core.HybridLink{}.V6)]byte{}
	_ [10]byte = [unsafe.Offsetof(core.HybridLink{}.Class)]byte{}
	_ [16]byte = [unsafe.Offsetof(core.HybridLink{}.Visibility)]byte{}
	_ [1]byte  = [unsafe.Sizeof(asrel.Rel(0))]byte{}
	_ [8]byte  = [unsafe.Sizeof(int(0))]byte{}
	_ [4]byte  = [unsafe.Sizeof(asrel.ASN(0))]byte{}
	_ [8]byte  = [unsafe.Sizeof(Neighbor{})]byte{}
	_ [4]byte  = [unsafe.Offsetof(Neighbor{}.flags)]byte{}
	_ [5]byte  = [unsafe.Offsetof(Neighbor{}.rel4)]byte{}
	_ [6]byte  = [unsafe.Offsetof(Neighbor{}.rel6)]byte{}
	_ [7]byte  = [unsafe.Offsetof(Neighbor{}.class)]byte{}
)

// aliasFixed builds a Snapshot whose tables, link sections, hybrid
// list and (version 3) serving index alias the mapped bytes directly.
// data must have passed parseFixed (which guarantees bounds and 8-byte
// alignment of every section offset; the mapping base is page-aligned,
// so aligned offsets yield aligned pointers). The eagerly-decoded
// stats are filled by the caller.
func aliasFixed(data []byte, lay *layout) (*Snapshot, bool) {
	s := &Snapshot{
		Rel4: intern.TableFromSorted(
			aliasSec[uint64](data, lay, secRel4Keys),
			aliasSec[asrel.Rel](data, lay, secRel4Rels)),
		Rel6: intern.TableFromSorted(
			aliasSec[uint64](data, lay, secRel6Keys),
			aliasSec[asrel.Rel](data, lay, secRel6Rels)),
		Links4:  aliasSec[Link](data, lay, secLinks4),
		Links6:  aliasSec[Link](data, lay, secLinks6),
		Hybrids: aliasSec[core.HybridLink](data, lay, secHybrids),
	}
	if lay.version == Version3 {
		s.index.idx = &Index{
			asns:     aliasSec[asrel.ASN](data, lay, secASNs),
			nbrOff:   aliasSec[uint32](data, lay, secNbrOff),
			nbrs:     aliasSec[Neighbor](data, lay, secNbrs),
			classOff: aliasSec[uint32](data, lay, secClassOff),
			classIdx: aliasSec[uint32](data, lay, secClassIdx),
			hybOff:   aliasSec[uint32](data, lay, secHybOff),
			hybIdx:   aliasSec[uint32](data, lay, secHybIdx),
			hybrids:  s.Hybrids,
		}
	}
	return s, true
}

// aliasSec reinterprets section si of the mapped artifact as a []T.
func aliasSec[T any](data []byte, lay *layout, si int) []T {
	n := lay.cnt[si]
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&data[lay.off[si]])), n)
}
