package snapshot

// Codec tests: the version-1 decoder over the committed v1 encodings
// of the small synthetic world (testdata/small.snap1 and its gzip form
// small.snap1.gz, written by the v1 encoder before it was retired) —
// each must decode to the same products, and so the same Bytes, as
// Capture of the world — plus the v1 failure-mode catalogue:
// truncation at any byte, bad magic, future versions, corrupted
// varints, invalid enum codes, each of which must return a descriptive
// error and never panic.

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/core"
	"hybridrel/internal/gen"
	"hybridrel/internal/intern"
	"hybridrel/internal/testutil"
)

var (
	worldOnce sync.Once
	worldA    *core.Analysis
	worldErr  error
)

// analysis builds (once) the small-world analysis every codec test
// round-trips.
func analysis(t testing.TB) *core.Analysis {
	t.Helper()
	worldOnce.Do(func() {
		w, err := testutil.BuildWorld(gen.SmallConfig())
		if err != nil {
			worldErr = err
			return
		}
		worldA = core.Analyze(w.D4, w.D6, w.Dict, core.DefaultOptions())
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return worldA
}

// assertSnapshotsEqual compares every product of two snapshots.
func assertSnapshotsEqual(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(want.Rel4, got.Rel4) {
		t.Error("Rel4 tables differ")
	}
	if !reflect.DeepEqual(want.Rel6, got.Rel6) {
		t.Error("Rel6 tables differ")
	}
	if !reflect.DeepEqual(want.Links4, got.Links4) {
		t.Error("IPv4 link sets differ")
	}
	if !reflect.DeepEqual(want.Links6, got.Links6) {
		t.Error("IPv6 link sets differ")
	}
	if !reflect.DeepEqual(want.Hybrids, got.Hybrids) {
		t.Error("hybrid lists differ")
	}
	if want.Coverage != got.Coverage {
		t.Errorf("coverage differs:\nwant %+v\ngot  %+v", want.Coverage, got.Coverage)
	}
	if !reflect.DeepEqual(want.Census, got.Census) {
		t.Errorf("census differs:\nwant %+v\ngot  %+v", want.Census, got.Census)
	}
	if want.Visibility != got.Visibility {
		t.Errorf("visibility differs:\nwant %+v\ngot  %+v", want.Visibility, got.Visibility)
	}
	if want.Valley != got.Valley {
		t.Errorf("valley stats differ:\nwant %+v\ngot  %+v", want.Valley, got.Valley)
	}
}

// The committed v1 encodings of the small world, raw and gzipped.
const (
	smallV1   = "testdata/small.snap1"
	smallV1GZ = "testdata/small.snap1.gz"
)

// v1Fixture returns the committed v1 encoding at path.
func v1Fixture(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRoundTripIdentity(t *testing.T) {
	want := Capture(analysis(t))
	if len(want.Hybrids) == 0 || len(want.Links6) == 0 || want.Rel6.Len() == 0 {
		t.Fatal("small world produced an empty snapshot; the round trip would be vacuous")
	}
	wantBytes, err := Bytes(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{smallV1, smallV1GZ} {
		got, err := Read(bytes.NewReader(v1Fixture(t, path)))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		assertSnapshotsEqual(t, want, got)
		gotBytes, err := Bytes(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Errorf("%s decodes to different Bytes than Capture of the small world", path)
		}
	}
}

// TestCodecAllocs pins the allocation counts of the encoder and the v1
// decoder on the fixture snapshot. EncodeV2 runs with the index
// already built, so it allocates only its chunk buffer, header and
// stats words; Read allocates one slice per decoded section. Neither
// count grows with the snapshot: a per-record allocation on either
// side exceeds its pin by thousands.
func TestCodecAllocs(t *testing.T) {
	const encodePin, readPin = 6, 20
	s := Capture(analysis(t))
	s.Index()
	data := v1Fixture(t, smallV1)
	enc := testing.AllocsPerRun(20, func() {
		if err := EncodeV2(io.Discard, s); err != nil {
			t.Fatal(err)
		}
	})
	dec := testing.AllocsPerRun(20, func() {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if enc > encodePin {
		t.Errorf("EncodeV2 allocates %.0f objects, pinned at %d", enc, encodePin)
	}
	if dec > readPin {
		t.Errorf("Read allocates %.0f objects, pinned at %d", dec, readPin)
	}
}

func TestWriteFileAndOpen(t *testing.T) {
	want := Capture(analysis(t))
	path := t.TempDir() + "/world.snap"
	if err := WriteFileV2(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, want, got)
	if _, err := Open(path + ".missing"); err == nil {
		t.Error("Open of a missing file succeeded")
	}
}

// header assembles a snapshot header for failure-mode tests.
func header(version uint16, flags byte) []byte {
	b := []byte("HYBS\x00\x00\x00")
	binary.BigEndian.PutUint16(b[4:6], version)
	b[6] = flags
	return b
}

// mustFail decodes corrupt input, requiring a descriptive error and —
// via the bare call — no panic.
func mustFail(t *testing.T, name string, data []byte, wantSub string) {
	t.Helper()
	s, err := Read(bytes.NewReader(data))
	if err == nil {
		t.Fatalf("%s: Read succeeded (%+v), want error", name, s)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Errorf("%s: error %q does not mention %q", name, err, wantSub)
	}
}

func TestFailureModes(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		mustFail(t, "empty", nil, "read header")
	})
	t.Run("bad magic", func(t *testing.T) {
		mustFail(t, "magic", []byte("NOTASNAPSHOT"), "bad magic")
	})
	t.Run("future version", func(t *testing.T) {
		mustFail(t, "future", header(Version3+1, 0), "newer than the supported version")
	})
	t.Run("version zero", func(t *testing.T) {
		mustFail(t, "v0", header(0, 0), "newer than the supported version")
	})
	t.Run("unknown flags", func(t *testing.T) {
		mustFail(t, "flags", header(Version1, 0x80), "unknown flags")
	})
	t.Run("corrupted varint", func(t *testing.T) {
		// Ten continuation bytes overflow any uvarint.
		data := append(header(Version1, 0), bytes.Repeat([]byte{0xFF}, 12)...)
		mustFail(t, "varint", data, "rel4 table")
	})
	t.Run("implausible count", func(t *testing.T) {
		data := header(Version1, 0)
		data = binary.AppendUvarint(data, 1<<40)
		mustFail(t, "count", data, "implausible count")
	})
	t.Run("invalid relationship code", func(t *testing.T) {
		data := header(Version1, 0)
		data = binary.AppendUvarint(data, 1) // one rel4 entry
		data = binary.AppendUvarint(data, 1) // lo
		data = binary.AppendUvarint(data, 2) // hi
		data = append(data, 0x7F)            // no such Rel
		mustFail(t, "rel", data, "invalid relationship code")
	})
	t.Run("non-canonical link", func(t *testing.T) {
		data := header(Version1, 0)
		data = binary.AppendUvarint(data, 1)
		data = binary.AppendUvarint(data, 9) // lo > hi
		data = binary.AppendUvarint(data, 2)
		data = append(data, 1)
		mustFail(t, "canon", data, "canonical order")
	})
	t.Run("unsorted rel table", func(t *testing.T) {
		data := header(Version1, 0)
		data = binary.AppendUvarint(data, 2)
		data = binary.AppendUvarint(data, 5) // 5-6 first...
		data = binary.AppendUvarint(data, 6)
		data = append(data, 1)
		data = binary.AppendUvarint(data, 1) // ...then 1-2: out of order
		data = binary.AppendUvarint(data, 2)
		data = append(data, 1)
		mustFail(t, "unsorted-rel", data, "out of canonical order")
	})
	t.Run("unsorted links", func(t *testing.T) {
		// Empty rel tables, then a links4 section out of canonical
		// order: the serving layer binary-searches the section in
		// place, so the decoder must reject it, exactly like the rel
		// tables.
		data := header(Version1, 0)
		data = binary.AppendUvarint(data, 0) // rel4
		data = binary.AppendUvarint(data, 0) // rel6
		data = binary.AppendUvarint(data, 2) // links4: two entries
		data = binary.AppendUvarint(data, 5) // 5-9 first...
		data = binary.AppendUvarint(data, 9)
		data = binary.AppendUvarint(data, 3)
		data = binary.AppendUvarint(data, 1) // ...then 1-2: out of order
		data = binary.AppendUvarint(data, 2)
		data = binary.AppendUvarint(data, 7)
		mustFail(t, "unsorted-links", data, "out of canonical order")
	})
	t.Run("duplicate link", func(t *testing.T) {
		data := header(Version1, 0)
		data = binary.AppendUvarint(data, 0)
		data = binary.AppendUvarint(data, 0)
		data = binary.AppendUvarint(data, 2)
		for i := 0; i < 2; i++ {
			data = binary.AppendUvarint(data, 1)
			data = binary.AppendUvarint(data, 2)
			data = binary.AppendUvarint(data, 7)
		}
		mustFail(t, "dup-link", data, "out of canonical order")
	})
	t.Run("garbage gzip payload", func(t *testing.T) {
		data := append(header(Version1, 1), []byte("definitely not gzip")...)
		mustFail(t, "gzip", data, "gzip")
	})
}

// TestTruncationAtEveryPrefix decodes prefixes of a valid v1 snapshot,
// raw and gzipped: every strict prefix must produce an error (the
// trailer sentinel makes even clean section-boundary cuts detectable)
// and none may panic.
func TestTruncationAtEveryPrefix(t *testing.T) {
	for _, path := range []string{smallV1, smallV1GZ} {
		data := v1Fixture(t, path)
		// Every byte of the header and first sections, then sampled
		// offsets through the body, then the final bytes.
		cuts := map[int]bool{}
		for i := 0; i < min(len(data), 256); i++ {
			cuts[i] = true
		}
		for i := 0; i < len(data); i += 997 {
			cuts[i] = true
		}
		for i := len(data) - 8; i < len(data); i++ {
			if i > 0 {
				cuts[i] = true
			}
		}
		for cut := range cuts {
			if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
				t.Fatalf("%s: truncation at %d/%d decoded successfully", path, cut, len(data))
			}
		}
	}
}

func TestTrailingGarbage(t *testing.T) {
	mustFail(t, "trailing", append(v1Fixture(t, smallV1), 'x'), "trailing garbage")
}

// emptyV1 is the v1 encoding of the degenerate snapshot: no links, no
// hybrids, zero stats.
func emptyV1() []byte {
	data := header(Version1, 0)
	data = append(data, make([]byte, 5+7+3+2)...) // five sections, coverage, census, visibility counts
	data = append(data, make([]byte, 16)...)      // two Float64bits(0)
	data = append(data, make([]byte, 5)...)       // valley
	return append(data, "SBYH"...)
}

// TestEmptySnapshot decodes the degenerate artifact in v1 and
// round-trips it through the current encoder.
func TestEmptySnapshot(t *testing.T) {
	want := &Snapshot{
		Rel4:   intern.FromTable(asrel.NewTable()),
		Rel6:   intern.FromTable(asrel.NewTable()),
		Census: core.HybridCensus{ByClass: map[asrel.HybridClass]int{}},
	}
	got, err := Read(bytes.NewReader(emptyV1()))
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, want, got)
	var buf bytes.Buffer
	if err := EncodeV2(&buf, want); err != nil {
		t.Fatal(err)
	}
	if got, err = Read(&buf); err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, want, got)
}

func BenchmarkDecode(b *testing.B) {
	benchmarkDecode(b, smallV1GZ)
}

func BenchmarkDecodeRaw(b *testing.B) {
	benchmarkDecode(b, smallV1)
}

func benchmarkDecode(b *testing.B, path string) {
	data := v1Fixture(b, path)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSnapshotReferences pins the artifact's reference count: Close
// drops the creator's reference once however often it is called, an
// acquired reference defers the release of the backing, Adopt hands
// the creator's reference over once, and a released backing can never
// be acquired again. A snapshot with nothing to release stays
// acquirable.
func TestSnapshotReferences(t *testing.T) {
	var closes int
	s := &Snapshot{}
	AttachCloser(s, func() error { closes++; return nil })
	if !s.Adopt() || s.Adopt() {
		t.Fatal("Adopt must hand the creator's reference over exactly once")
	}
	if !s.Acquire() {
		t.Fatal("Acquire failed on a live snapshot")
	}
	for i := 0; i < 3; i++ {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if closes != 0 {
		t.Fatalf("backing released %d times while a reference is held", closes)
	}
	s.Release()
	if closes != 1 {
		t.Fatalf("backing released %d times after the last reference, want 1", closes)
	}
	if s.Acquire() {
		t.Fatal("Acquire succeeded on a released snapshot")
	}

	heap := &Snapshot{}
	if err := heap.Close(); err != nil {
		t.Fatal(err)
	}
	if !heap.Acquire() {
		t.Fatal("a snapshot with nothing to release must stay acquirable")
	}
	heap.Release()
}
