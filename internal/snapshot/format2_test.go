package snapshot

// Fixed-width format tests: round-trip identity through the strict
// decoder, the canonical-bytes property, Map serving the same answers
// as Open from an aliased mapping, the v2/v3 failure-mode catalogue,
// and the byte-offset error context Open reports.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/core"
	"hybridrel/internal/intern"
)

// encodeV2Bytes encodes s in format v2 in memory.
func encodeV2Bytes(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeV2(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestV2RoundTripIdentity(t *testing.T) {
	want := Capture(analysis(t))
	if len(want.Hybrids) == 0 || want.Rel6.Len() == 0 {
		t.Fatal("small world produced an empty snapshot; the round trip would be vacuous")
	}
	data := encodeV2Bytes(t, want)
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, want, got)
}

func TestV2EncodeIsCanonical(t *testing.T) {
	s := Capture(analysis(t))
	a := encodeV2Bytes(t, s)
	b := encodeV2Bytes(t, s)
	if !bytes.Equal(a, b) {
		t.Fatal("EncodeV2 is not deterministic")
	}
	decoded, err := readFixed(a)
	if err != nil {
		t.Fatal(err)
	}
	if c := encodeV2Bytes(t, decoded); !bytes.Equal(a, c) {
		t.Error("EncodeV2(readFixed(x)) != x: the fixed-width encoding is not a fixed point")
	}
}

func TestMapServesInPlace(t *testing.T) {
	want := Capture(analysis(t))
	path := filepath.Join(t.TempDir(), "world.snap2")
	if err := WriteFileV2(path, want); err != nil {
		t.Fatal(err)
	}
	m, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, want, m)
	// Every product answers identically through the mapped form: the
	// canonical bytes re-encoded from the aliased slices must match.
	wantBytes, err := Bytes(want)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := Bytes(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Error("mapped snapshot re-encodes differently from the original")
	}
	for _, h := range want.Hybrids {
		if got := m.Rel6.GetKey(h.Key); got != h.V6 {
			t.Errorf("hybrid %s: mapped Rel6 says %s, want %s", h.Key, got, h.V6)
		}
	}
	// The mapping survives deletion of the file (the hot-reload rename
	// case) until Close, which is idempotent.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if m.Rel4.Len() != want.Rel4.Len() {
		t.Error("mapping unusable after file deletion")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestMapRejectsV1(t *testing.T) {
	for _, path := range []string{smallV1, smallV1GZ} {
		_, err := Map(path)
		if err == nil {
			t.Fatalf("Map accepted the version-1 snapshot %s", path)
		}
		for _, sub := range []string{"cannot be mapped", path} {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("error %q does not mention %q", err, sub)
			}
		}
	}
}

// reseal recomputes every section checksum of a v3 artifact in place.
func reseal(t testing.TB, b []byte) {
	t.Helper()
	lay, err := parseFixed(b[:v3HeaderSize], b[len(b)-4:], len(b))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < numSections; i++ {
		binary.LittleEndian.PutUint32(b[8+lay.spec.entry*i+16:], crc32.Checksum(lay.records(b, i), castagnoli))
	}
}

// mustFailV2 routes corrupt fixed-width bytes through the strict reader,
// requiring a descriptive error and no panic.
func mustFailV2(t *testing.T, name string, data []byte, wantSub string) {
	t.Helper()
	s, err := Read(bytes.NewReader(data))
	if err == nil {
		t.Fatalf("%s: Read succeeded (%+v), want error", name, s)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Errorf("%s: error %q does not mention %q", name, err, wantSub)
	}
}

// fixedInput is a valid fixed-width artifact the failure modes corrupt.
type fixedInput struct {
	name string
	data []byte
	lay  *layout
}

// dir is the byte offset of section i's directory entry.
func (in fixedInput) dir(i int) int { return 8 + in.lay.spec.entry*i }

// mut returns a copy of the artifact with edit applied.
func (in fixedInput) mut(edit func(b []byte)) []byte {
	b := bytes.Clone(in.data)
	edit(b)
	return b
}

// sealed edits a section's records and, for v3, recomputes the
// checksums, so the record checks behind them are reached.
func (in fixedInput) sealed(t *testing.T, edit func(b []byte)) []byte {
	return in.mut(func(b []byte) {
		edit(b)
		if in.lay.version == Version3 {
			reseal(t, b)
		}
	})
}

// TestV2FailureModes corrupts a v3 artifact and the committed v2 one
// (16-byte directory entries, no checksums) the same ways; the strict
// reader must reject both versions.
func TestV2FailureModes(t *testing.T) {
	v2, err := os.ReadFile(filepath.Join("testdata", "small.snap2"))
	if err != nil {
		t.Fatal(err)
	}
	var inputs []fixedInput
	for _, data := range [][]byte{encodeV2Bytes(t, Capture(analysis(t))), v2} {
		lay, err := parseFixed(data[:v3HeaderSize], data[len(data)-4:], len(data))
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, fixedInput{name: fmt.Sprintf("v%d", lay.version), data: data, lay: lay})
	}
	if inputs[1].lay.version != Version2 {
		t.Fatalf("testdata/small.snap2 is version %d, want %d", inputs[1].lay.version, Version2)
	}
	// each runs one failure mode on both inputs, skipping an input the
	// mode cannot corrupt (an empty section).
	each := func(name string, skip func(l *layout) bool, corrupt func(t *testing.T, in fixedInput) []byte, wantSub string) {
		t.Run(name, func(t *testing.T) {
			for _, in := range inputs {
				if skip != nil && skip(in.lay) {
					t.Logf("%s: skipped, section too small", in.name)
					continue
				}
				mustFailV2(t, in.name+" "+name, corrupt(t, in), wantSub)
			}
		})
	}
	t.Run("truncated", func(t *testing.T) {
		for _, in := range inputs {
			for _, n := range []int{in.lay.spec.headerSize() + len(trailer) - 1, len(in.data) / 2, len(in.data) - 1} {
				mustFailV2(t, in.name+" truncated", in.data[:n], "snapshot")
			}
		}
	})
	each("nonzero flags", nil, func(t *testing.T, in fixedInput) []byte {
		return in.mut(func(b []byte) { b[6] = 1 })
	}, "never compressed")
	each("bad section count", nil, func(t *testing.T, in fixedInput) []byte {
		return in.mut(func(b []byte) { b[7] = 3 })
	}, "section count")
	each("bad trailer", nil, func(t *testing.T, in fixedInput) []byte {
		return in.mut(func(b []byte) { b[len(b)-1] = 'X' })
	}, "bad sentinel")
	each("misaligned section offset", nil, func(t *testing.T, in fixedInput) []byte {
		return in.mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[in.dir(0):], uint64(in.lay.off[0]+1))
		})
	}, "out of bounds")
	each("offset past EOF", nil, func(t *testing.T, in fixedInput) []byte {
		return in.mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[in.dir(secHybrids):], uint64(len(b)))
		})
	}, "out of bounds")
	each("implausible count", nil, func(t *testing.T, in fixedInput) []byte {
		return in.mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[in.dir(secLinks4)+8:], maxCount+1)
		})
	}, "implausible count")
	// Shrinking the rel4rels count keeps it in bounds but breaks the
	// pairing invariant.
	each("key/rel counts disagree", func(l *layout) bool { return l.cnt[secRel4Rels] == 0 }, func(t *testing.T, in fixedInput) []byte {
		return in.mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[in.dir(secRel4Rels)+8:], uint64(in.lay.cnt[secRel4Rels]-1))
		})
	}, "counts disagree")
	// Both rel tables pointed at the same (valid) keys section: Map
	// would serve it, the strict reader rejects it.
	each("non-canonical placement", nil, func(t *testing.T, in fixedInput) []byte {
		l := in.lay
		return in.mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[in.dir(secRel6Keys):], uint64(l.off[secRel4Keys]))
			binary.LittleEndian.PutUint64(b[in.dir(secRel6Keys)+8:], uint64(l.cnt[secRel4Keys]))
			binary.LittleEndian.PutUint64(b[in.dir(secRel6Rels):], uint64(l.off[secRel4Rels]))
			binary.LittleEndian.PutUint64(b[in.dir(secRel6Rels)+8:], uint64(l.cnt[secRel4Rels]))
		})
	}, "canonical offset")
	each("unsorted rel table", func(l *layout) bool { return l.cnt[secRel4Keys] < 2 }, func(t *testing.T, in fixedInput) []byte {
		at := in.lay.off[secRel4Keys]
		return in.sealed(t, func(b []byte) {
			a := binary.LittleEndian.Uint64(b[at:])
			z := binary.LittleEndian.Uint64(b[at+8:])
			binary.LittleEndian.PutUint64(b[at:], z)
			binary.LittleEndian.PutUint64(b[at+8:], a)
		})
	}, "out of canonical order")
	each("invalid relationship code", func(l *layout) bool { return l.cnt[secRel4Rels] == 0 }, func(t *testing.T, in fixedInput) []byte {
		return in.sealed(t, func(b []byte) { b[in.lay.off[secRel4Rels]] = 0x7F })
	}, "invalid relationship code")
	each("invalid hybrid class", func(l *layout) bool { return l.cnt[secHybrids] == 0 }, func(t *testing.T, in fixedInput) []byte {
		return in.sealed(t, func(b []byte) { b[in.lay.off[secHybrids]+10] = 0x7F })
	}, "invalid hybrid class")
	each("census classes out of order", func(l *layout) bool { return l.cnt[secStats] < 19+2*2 }, func(t *testing.T, in fixedInput) []byte {
		return in.sealed(t, func(b []byte) { swapCensusPairs(b, in.lay) })
	}, "not strictly ascending")
	each("duplicate census class", func(l *layout) bool { return l.cnt[secStats] < 19+2*2 }, func(t *testing.T, in fixedInput) []byte {
		at := in.lay.off[secStats]
		return in.sealed(t, func(b []byte) { copy(b[at+8*12:at+8*13], b[at+8*10:at+8*11]) })
	}, "not strictly ascending")
	each("nonzero hybrid record padding", func(l *layout) bool { return l.cnt[secHybrids] == 0 }, func(t *testing.T, in fixedInput) []byte {
		return in.sealed(t, func(b []byte) { b[in.lay.off[secHybrids]+12] = 1 })
	}, "nonzero record padding")
}

// swapCensusPairs swaps the first two (class, count) word pairs of the
// stats section in place: words 10–11 and 12–13.
func swapCensusPairs(b []byte, lay *layout) {
	at := lay.off[secStats] + 8*10
	first := bytes.Clone(b[at : at+16])
	copy(b[at:at+16], b[at+16:at+32])
	copy(b[at+16:at+32], first)
}

// TestCensusOrderRejected swaps the small world's first two census
// pairs and reseals the checksums: the file is well-formed except that
// its classes descend, which would decode to the same map and re-encode
// to different bytes. Read, Open, Map (which shares the stats reader)
// and Verify over the image must all reject it, naming the section.
func TestCensusOrderRejected(t *testing.T) {
	bad := encodeV2Bytes(t, Capture(analysis(t)))
	lay, err := parseFixed(bad[:v3HeaderSize], bad[len(bad)-4:], len(bad))
	if err != nil {
		t.Fatal(err)
	}
	if lay.cnt[secStats] < 19+2*2 {
		t.Fatalf("the small world's census has %d words, need two classes", lay.cnt[secStats])
	}
	swapCensusPairs(bad, lay)
	reseal(t, bad)
	path := filepath.Join(t.TempDir(), "census.snap")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rerr := Read(bytes.NewReader(bad))
	_, oerr := Open(path)
	_, merr := Map(path)
	verr := (&Snapshot{raw: bad}).Verify()
	for name, err := range map[string]error{"Read": rerr, "Open": oerr, "Map": merr, "Verify": verr} {
		if err == nil {
			t.Errorf("%s accepted descending census classes", name)
			continue
		}
		for _, sub := range []string{"(stats)", "not strictly ascending"} {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: error %q does not mention %q", name, err, sub)
			}
		}
	}
}

// TestOpenReportsPathAndOffset pins the satellite contract: a
// truncated artifact names the file and the payload byte position.
func TestOpenReportsPathAndOffset(t *testing.T) {
	v1 := v1Fixture(t, smallV1)
	path := filepath.Join(t.TempDir(), "trunc.snap")
	if err := os.WriteFile(path, v1[:len(v1)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	if err == nil {
		t.Fatal("Open accepted a truncated snapshot")
	}
	for _, sub := range []string{path, "payload byte"} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("error %q does not mention %q", err, sub)
		}
	}
	// The reported offset must be a real position, not zero: cutting a
	// third off the end leaves the decoder deep into the payload.
	if strings.Contains(err.Error(), "payload byte 0)") ||
		strings.HasSuffix(err.Error(), "payload byte 0") {
		t.Errorf("error %q reports offset 0 for a deep truncation", err)
	}
}

// TestV3IntegrityErrors pins what strict Read reports for the two v3
// integrity checks: a record that no longer matches its section's
// checksum, and — checksums recomputed — a stored index that differs
// from the builder's. Both name the section and a byte offset inside
// it; Map accepts both files, and Verify on the mapping rejects them
// with the same errors.
func TestV3IntegrityErrors(t *testing.T) {
	valid := encodeV2Bytes(t, Capture(analysis(t)))
	lay, err := parseFixed(valid[:v3HeaderSize], valid[len(valid)-4:], len(valid))
	if err != nil {
		t.Fatal(err)
	}
	badCRC := bytes.Clone(valid)
	badCRC[lay.off[secLinks6]+8] ^= 1
	badIdx := bytes.Clone(valid)
	at := lay.off[secNbrs] + 8*(lay.cnt[secNbrs]/2) + 4
	badIdx[at] ^= nbrV4 | nbrV6
	reseal(t, badIdx)
	for _, c := range []struct {
		name string
		data []byte
		want []string
	}{
		{"checksum", badCRC, []string{"(ipv6 links)", "checksum mismatch", fmt.Sprintf("byte offset %d", lay.off[secLinks6])}},
		{"index", badIdx, []string{"(index neighbours)", "stored index differs", fmt.Sprintf("byte offset %d", at)}},
	} {
		_, rerr := Read(bytes.NewReader(c.data))
		if rerr == nil {
			t.Fatalf("%s: strict Read accepted the corrupt artifact", c.name)
		}
		for _, sub := range c.want {
			if !strings.Contains(rerr.Error(), sub) {
				t.Errorf("%s: error %q does not mention %q", c.name, rerr, sub)
			}
		}
		path := filepath.Join(t.TempDir(), "bad.snap")
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := Map(path)
		if err != nil {
			t.Fatalf("%s: Map checks structure only, yet rejected the file: %v", c.name, err)
		}
		if verr := m.Verify(); verr == nil || verr.Error() != rerr.Error() {
			t.Errorf("%s: Verify = %v, want the strict reader's %v", c.name, verr, rerr)
		}
		m.Close()
	}
}

// TestVerify runs Verify over a clean mapped artifact, a heap snapshot,
// and the committed v2 file, none of which it may reject.
func TestVerify(t *testing.T) {
	s := Capture(analysis(t))
	if err := s.Verify(); err != nil {
		t.Errorf("heap snapshot: Verify = %v", err)
	}
	path := filepath.Join(t.TempDir(), "world.snap")
	if err := WriteFileV2(path, s); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, filepath.Join("testdata", "small.snap2")} {
		m, err := Map(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Verify(); err != nil {
			t.Errorf("%s: Verify = %v", p, err)
		}
		m.Close()
	}
}

// TestIndexMatchesReference checks the linear index builder against a
// direct map-based construction, on the small world and on a hand-made
// snapshot with a self-loop, an AS present in one plane only, a
// relationship recorded for a link of the other plane, and a hybrid
// whose endpoints are absent from both link sets.
func TestIndexMatchesReference(t *testing.T) {
	key := func(a, b asrel.ASN) asrel.LinkKey { return asrel.Key(a, b) }
	table := func(rels map[asrel.LinkKey]asrel.Rel) *intern.Table {
		tb := asrel.NewTable()
		for k, r := range rels {
			tb.Set(k.Lo, k.Hi, r)
		}
		return intern.FromTable(tb)
	}
	hand := &Snapshot{
		Rel4:   table(map[asrel.LinkKey]asrel.Rel{key(1, 2): asrel.P2C, key(3, 9): asrel.C2P, key(2, 7): asrel.P2P}),
		Rel6:   table(map[asrel.LinkKey]asrel.Rel{key(1, 2): asrel.P2P, key(3, 9): asrel.P2P}),
		Links4: []Link{{key(1, 2), 1}, {key(1, 5), 1}, {key(3, 3), 1}, {key(3, 9), 1}},
		Links6: []Link{{key(1, 2), 2}, {key(2, 7), 1}, {key(3, 9), 4}},
		Hybrids: []core.HybridLink{
			{Key: key(3, 9), Class: asrel.HybridTransitPeer},
			{Key: key(1, 2), Class: asrel.HybridTransitPeer},
			{Key: key(4, 8), Class: asrel.HybridPeerTransit},
		},
	}
	for name, s := range map[string]*Snapshot{"small world": Capture(analysis(t)), "hand-made": hand} {
		ix := buildIndex(s)
		hybrid := map[asrel.LinkKey]asrel.HybridClass{}
		for i := len(s.Hybrids) - 1; i >= 0; i-- {
			hybrid[s.Hybrids[i].Key] = s.Hybrids[i].Class
		}
		planes := map[asrel.ASN]map[asrel.ASN]uint8{}
		for p, ls := range [][]Link{s.Links4, s.Links6} {
			for _, l := range ls {
				for _, e := range [][2]asrel.ASN{{l.Key.Lo, l.Key.Hi}, {l.Key.Hi, l.Key.Lo}} {
					if planes[e[0]] == nil {
						planes[e[0]] = map[asrel.ASN]uint8{}
					}
					planes[e[0]][e[1]] |= 1 << p
				}
			}
		}
		if ix.NumASes() != len(planes) {
			t.Fatalf("%s: %d ASes, want %d", name, ix.NumASes(), len(planes))
		}
		for a, nbrs := range planes {
			i, ok := ix.LookupAS(a)
			if !ok {
				t.Fatalf("%s: AS %d missing from the index", name, a)
			}
			var want []Neighbor
			for b, p := range nbrs {
				n := Neighbor{ASN: b, flags: p, rel4: s.Rel4.Get(a, b), rel6: s.Rel6.Get(a, b)}
				if cl, ok := hybrid[key(a, b)]; ok {
					n.flags |= nbrHybrid
					n.class = cl
				}
				want = append(want, n)
				if got, ok := ix.Link(a, b); !ok || got != n {
					t.Errorf("%s: Link(%d, %d) = %+v, %v, want %+v", name, a, b, got, ok, n)
				}
			}
			slices.SortFunc(want, func(x, y Neighbor) int { return cmp.Compare(x.ASN, y.ASN) })
			if got := ix.Neighbors(i); !slices.Equal(got, want) {
				t.Errorf("%s: AS %d neighbours %+v, want %+v", name, a, got, want)
			}
			var wantHyb []uint32
			for p, h := range s.Hybrids {
				for _, end := range []asrel.ASN{h.Key.Lo, h.Key.Hi} {
					if end == a {
						wantHyb = append(wantHyb, uint32(p))
					}
				}
			}
			if got := ix.ASHybrids(i); !slices.Equal(got, wantHyb) {
				t.Errorf("%s: AS %d hybrids %v, want %v", name, a, got, wantHyb)
			}
		}
		for cl := asrel.NotHybrid; cl <= asrel.HybridOther; cl++ {
			var want []uint32
			for p, h := range s.Hybrids {
				if h.Class == cl {
					want = append(want, uint32(p))
				}
			}
			if got := ix.ClassHybrids(cl); !slices.Equal(got, want) {
				t.Errorf("%s: class %s run %v, want %v", name, cl, got, want)
			}
		}
		if _, ok := ix.Link(1, 9); ok && name == "hand-made" {
			t.Errorf("%s: Link found an unobserved link", name)
		}
	}
}

// TestIndexBuiltOnce has several goroutines ask a fresh snapshot for
// its index at once, as concurrent installs and exports may: the index
// is built once and every caller gets it. Run with -race.
func TestIndexBuiltOnce(t *testing.T) {
	s := Capture(analysis(t))
	const callers = 8
	got := make([]*Index, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = s.Index()
		}(i)
	}
	wg.Wait()
	for i, ix := range got {
		if ix == nil || ix != got[0] {
			t.Fatalf("caller %d got index %p, caller 0 %p", i, ix, got[0])
		}
	}
}
