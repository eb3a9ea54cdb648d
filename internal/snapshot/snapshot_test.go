package snapshot

// Codec tests: round-trip identity over the small synthetic world (the
// acceptance bar: Read(Write(a)) reproduces every queryable product
// exactly), golden agreement between a decoded snapshot and the live
// analysis, and the failure-mode catalogue — truncation at any byte,
// bad magic, future versions, corrupted varints, invalid enum codes —
// each of which must return a descriptive error and never panic.

import (
	"bytes"
	"encoding/binary"
	"io"
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

func TestRoundTripIdentity(t *testing.T) {
	a := analysis(t)
	want := Capture(a)
	if len(want.Hybrids) == 0 || len(want.Links6) == 0 || want.Rel6.Len() == 0 {
		t.Fatal("small world produced an empty snapshot; the round trip would be vacuous")
	}
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		if err := Encode(&buf, want, compress); err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		assertSnapshotsEqual(t, want, got)
		t.Logf("compress=%v: %d bytes for %d+%d rels, %d+%d links, %d hybrids",
			compress, buf.Len(), want.Rel4.Len(), want.Rel6.Len(),
			len(want.Links4), len(want.Links6), len(want.Hybrids))
	}
}

func TestCompressionActuallyShrinks(t *testing.T) {
	s := Capture(analysis(t))
	var raw, gz bytes.Buffer
	if err := Encode(&raw, s, false); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&gz, s, true); err != nil {
		t.Fatal(err)
	}
	if gz.Len() >= raw.Len() {
		t.Errorf("gzip did not shrink the payload: %d >= %d", gz.Len(), raw.Len())
	}
}

// TestCodecAllocs pins the allocation counts of the v1 codec on the
// fixture snapshot, uncompressed so the codec is measured rather than
// gzip. Both sides allocate a fixed set of buffers and headers, and
// Read one slice per decoded section, so the counts do not grow with
// the snapshot: a per-link allocation on either side exceeds its pin
// by thousands.
func TestCodecAllocs(t *testing.T) {
	const encodePin, readPin = 9, 20
	s := Capture(analysis(t))
	var buf bytes.Buffer
	if err := Encode(&buf, s, false); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	enc := testing.AllocsPerRun(20, func() {
		if err := Encode(io.Discard, s, false); err != nil {
			t.Fatal(err)
		}
	})
	dec := testing.AllocsPerRun(20, func() {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if enc > encodePin {
		t.Errorf("Encode allocates %.0f objects, pinned at %d", enc, encodePin)
	}
	if dec > readPin {
		t.Errorf("Read allocates %.0f objects, pinned at %d", dec, readPin)
	}
}

func TestWriteFileAndOpen(t *testing.T) {
	a := analysis(t)
	path := t.TempDir() + "/world.snap"
	if err := WriteFile(path, a); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, Capture(a), got)
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
		mustFail(t, "flags", header(Version, 0x80), "unknown flags")
	})
	t.Run("corrupted varint", func(t *testing.T) {
		// Ten continuation bytes overflow any uvarint.
		data := append(header(Version, 0), bytes.Repeat([]byte{0xFF}, 12)...)
		mustFail(t, "varint", data, "rel4 table")
	})
	t.Run("implausible count", func(t *testing.T) {
		data := header(Version, 0)
		data = binary.AppendUvarint(data, 1<<40)
		mustFail(t, "count", data, "implausible count")
	})
	t.Run("invalid relationship code", func(t *testing.T) {
		data := header(Version, 0)
		data = binary.AppendUvarint(data, 1) // one rel4 entry
		data = binary.AppendUvarint(data, 1) // lo
		data = binary.AppendUvarint(data, 2) // hi
		data = append(data, 0x7F)            // no such Rel
		mustFail(t, "rel", data, "invalid relationship code")
	})
	t.Run("non-canonical link", func(t *testing.T) {
		data := header(Version, 0)
		data = binary.AppendUvarint(data, 1)
		data = binary.AppendUvarint(data, 9) // lo > hi
		data = binary.AppendUvarint(data, 2)
		data = append(data, 1)
		mustFail(t, "canon", data, "canonical order")
	})
	t.Run("unsorted rel table", func(t *testing.T) {
		data := header(Version, 0)
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
		data := header(Version, 0)
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
		data := header(Version, 0)
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
		data := append(header(Version, 1), []byte("definitely not gzip")...)
		mustFail(t, "gzip", data, "gzip")
	})
}

// TestTruncationAtEveryPrefix decodes prefixes of a valid snapshot:
// every strict prefix must produce an error (the trailer sentinel makes
// even clean section-boundary cuts detectable) and none may panic.
func TestTruncationAtEveryPrefix(t *testing.T) {
	s := Capture(analysis(t))
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		if err := Encode(&buf, s, compress); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
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
				t.Fatalf("compress=%v: truncation at %d/%d decoded successfully", compress, cut, len(data))
			}
		}
	}
}

func TestTrailingGarbage(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Capture(analysis(t)), false); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('x')
	mustFail(t, "trailing", buf.Bytes(), "trailing garbage")
}

// TestEmptySnapshot round-trips the degenerate artifact: no links, no
// hybrids, zero stats.
func TestEmptySnapshot(t *testing.T) {
	want := &Snapshot{
		Rel4:   intern.FromTable(asrel.NewTable()),
		Rel6:   intern.FromTable(asrel.NewTable()),
		Census: core.HybridCensus{ByClass: map[asrel.HybridClass]int{}},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, want, true); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, want, got)
}

func BenchmarkEncode(b *testing.B) {
	s := Capture(analysis(b))
	var buf bytes.Buffer
	if err := Encode(&buf, s, true); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Encode(&buf, s, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeRaw(b *testing.B) {
	s := Capture(analysis(b))
	var buf bytes.Buffer
	if err := Encode(&buf, s, false); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Encode(&buf, s, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	var buf bytes.Buffer
	if err := Encode(&buf, Capture(analysis(b)), true); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRaw(b *testing.B) {
	var buf bytes.Buffer
	if err := Encode(&buf, Capture(analysis(b)), false); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
