package snapshot

// Native fuzz target for snapshot.Read — the third untrusted decoder,
// covering every wire format. Beyond "never panic", the target enforces
// two differential oracles: whatever Read accepts must re-encode and
// re-decode to a stable form (Encode(Read(x)) is a fixed point), and
// the cross-version oracle — re-encoding the accepted snapshot in the
// fixed-width format and decoding that must yield the same canonical
// v1 bytes. Fixed-width seeds exercise the strict decoder: valid
// artifacts, header/offset-directory corruption, misaligned sections,
// truncation, a section checksum mismatch, and a stored index that
// differs from the builder's. The committed seed corpus under
// testdata/fuzz/FuzzRead is generated from a tiny testutil world
// (regenerate with WRITE_FUZZ_CORPUS=1 go test -run
// TestWriteFuzzCorpus); its seed-v2* files were written by the
// version-2 encoder and are kept as they are, since that encoder no
// longer exists.
//
// Run locally with:
//
//	go test -fuzz=FuzzRead -fuzztime=30s ./internal/snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hybridrel/internal/core"
	"hybridrel/internal/gen"
	"hybridrel/internal/testutil"
)

// tinySnapshots encodes a miniature world's snapshot raw, compressed,
// and in the fixed-width format (v3) for fuzz seeds.
func tinySnapshots(t testing.TB) (raw, gz, v3 []byte) {
	t.Helper()
	cfg := gen.SmallConfig()
	cfg.NumASes = 48
	cfg.NumTier1 = 3
	cfg.V6OnlyPeerings = 8
	cfg.NumRelaxers = 1
	cfg.NumNoiseLeakers = 1
	cfg.HubPeerings = 3
	cfg.NumVantages = 4
	w, err := testutil.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := Capture(core.Analyze(w.D4, w.D6, w.Dict, core.DefaultOptions()))
	var rawBuf, gzBuf, v3Buf bytes.Buffer
	if err := Encode(&rawBuf, s, false); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&gzBuf, s, true); err != nil {
		t.Fatal(err)
	}
	if err := EncodeV2(&v3Buf, s); err != nil {
		t.Fatal(err)
	}
	return rawBuf.Bytes(), gzBuf.Bytes(), v3Buf.Bytes()
}

// badCRC flips one record byte of the ipv4 links section without
// updating its checksum.
func badCRC(t testing.TB, v3 []byte) []byte {
	b := bytes.Clone(v3)
	lay, err := parseFixed(b[:v3HeaderSize], b[len(b)-4:], len(b))
	if err != nil {
		t.Fatal(err)
	}
	b[lay.off[secLinks4]+8] ^= 0x01
	return b
}

// badIndex moves one neighbour record to the other plane and reseals
// the checksums: only the stored-index check can reject it.
func badIndex(t testing.TB, v3 []byte) []byte {
	b := bytes.Clone(v3)
	lay, err := parseFixed(b[:v3HeaderSize], b[len(b)-4:], len(b))
	if err != nil {
		t.Fatal(err)
	}
	b[lay.off[secNbrs]+4] ^= nbrV4 | nbrV6
	reseal(t, b)
	return b
}

func FuzzRead(f *testing.F) {
	raw, gz, v3 := tinySnapshots(f)
	f.Add(raw)
	f.Add(gz)
	f.Add(raw[:len(raw)/2])
	f.Add(raw[:7])
	f.Add([]byte("HYBS\x00\x01\x00"))
	f.Add([]byte("not a snapshot at all"))
	// An empty-but-valid payload: zero counts for every section.
	empty := &Snapshot{}
	var emptyBuf bytes.Buffer
	if err := Encode(&emptyBuf, empty, false); err != nil {
		f.Fatal(err)
	}
	f.Add(emptyBuf.Bytes())
	// Fixed-width seeds: a valid artifact, truncations landing inside
	// the directory and inside a section, a corrupted directory offset,
	// a misaligned section offset, a checksum mismatch, a corrupt stored
	// index, and an empty-but-valid artifact.
	f.Add(v3)
	f.Add(v3[:len(v3)/2])
	f.Add(v3[:v3HeaderSize-9])
	corruptDir := bytes.Clone(v3)
	binary.LittleEndian.PutUint64(corruptDir[8+24*secHybrids:], uint64(len(v3)*2))
	f.Add(corruptDir)
	misaligned := bytes.Clone(v3)
	binary.LittleEndian.PutUint64(misaligned[8:], uint64(v3HeaderSize+1))
	f.Add(misaligned)
	f.Add(badCRC(f, v3))
	f.Add(badIndex(f, v3))
	var emptyV3 bytes.Buffer
	if err := EncodeV2(&emptyV3, empty); err != nil {
		f.Fatal(err)
	}
	f.Add(emptyV3.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			// Malformed input must produce a descriptive error, never a
			// panic (the call above) and never a partial snapshot.
			if err.Error() == "" {
				t.Fatal("Read returned an empty error")
			}
			return
		}
		if s == nil || s.Rel4 == nil || s.Rel6 == nil {
			t.Fatal("accepted snapshot has nil tables")
		}

		// Differential oracle: an accepted snapshot re-encodes, and the
		// re-encoded bytes decode to a snapshot that re-encodes to the
		// same bytes — the codec is a fixed point on its own output.
		var first bytes.Buffer
		if err := Encode(&first, s, false); err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		s2, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoded snapshot failed: %v", err)
		}
		var second bytes.Buffer
		if err := Encode(&second, s2, false); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("codec is not a fixed point: %d vs %d bytes", first.Len(), second.Len())
		}

		// Cross-version oracle: re-encoding the accepted snapshot in
		// the fixed-width format and strictly decoding that must
		// round-trip back to the same canonical v1 bytes, whichever
		// version the input was.
		var asV3 bytes.Buffer
		if err := EncodeV2(&asV3, s); err != nil {
			t.Fatalf("v3 re-encode of accepted snapshot failed: %v", err)
		}
		s3, err := Read(bytes.NewReader(asV3.Bytes()))
		if err != nil {
			t.Fatalf("decode of v3 re-encoded snapshot failed: %v", err)
		}
		var third bytes.Buffer
		if err := Encode(&third, s3, false); err != nil {
			t.Fatalf("v1 re-encode after v3 round trip failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), third.Bytes()) {
			t.Fatalf("v1↔v3 cross-version oracle violated: %d vs %d bytes", first.Len(), third.Len())
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus. Gated
// behind WRITE_FUZZ_CORPUS so normal runs never touch the files. The
// seed-v2* files are not written: they hold version-2 bytes, which
// nothing here encodes any more.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the seed corpus")
	}
	raw, gz, v3 := tinySnapshots(t)
	dir := filepath.Join("testdata", "fuzz", "FuzzRead")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("seed-raw", raw)
	write("seed-gzip", gz)
	write("seed-raw-truncated", raw[:len(raw)/3])
	write("seed-v3", v3)
	write("seed-v3-truncated", v3[:len(v3)/3])
	write("seed-v3-badcrc", badCRC(t, v3))
	write("seed-v3-badindex", badIndex(t, v3))
}
