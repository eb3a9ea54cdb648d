package snapshot

// Native fuzz target for snapshot.Read — the third untrusted decoder,
// covering every wire format. Beyond "never panic", the target enforces
// a differential oracle: whatever Read accepts must re-encode to v3
// bytes that decode and re-encode to the same bytes (EncodeV2(Read(x))
// is a fixed point). For a version-1 or version-2 input that is the
// cross-version oracle: its products survive the trip into the current
// format unchanged. Fixed-width seeds exercise the strict decoder:
// valid artifacts, header/offset-directory corruption, misaligned
// sections, truncation, a section checksum mismatch, and a stored index
// that differs from the builder's. The committed seed corpus under
// testdata/fuzz/FuzzRead is generated from a tiny testutil world
// (regenerate its seed-v3* files with WRITE_FUZZ_CORPUS=1 go test -run
// TestWriteFuzzCorpus). Its seed-raw, seed-gzip and seed-raw-truncated
// files hold version-1 bytes and its seed-v2* files version-2 bytes;
// both were written by encoders that no longer exist and are kept as
// they are.
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

// tinyV3 encodes a miniature world's snapshot in the current format
// for fuzz seeds.
func tinyV3(t testing.TB) []byte {
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
	v3, err := Bytes(Capture(core.Analyze(w.D4, w.D6, w.Dict, core.DefaultOptions())))
	if err != nil {
		t.Fatal(err)
	}
	return v3
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
	// Version-1 seeds: the committed small-world encodings, a
	// truncation, a bare header, garbage, and an empty-but-valid
	// payload with zero counts for every section.
	raw := v1Fixture(f, smallV1)
	f.Add(raw)
	f.Add(v1Fixture(f, smallV1GZ))
	f.Add(raw[:len(raw)/2])
	f.Add(raw[:7])
	f.Add([]byte("HYBS\x00\x01\x00"))
	f.Add([]byte("not a snapshot at all"))
	f.Add(emptyV1())
	v3 := tinyV3(f)
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
	emptyV3, err := Bytes(&Snapshot{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(emptyV3)

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
		// same bytes — whichever version the input was.
		first, err := Bytes(s)
		if err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		s2, err := Read(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("decode of re-encoded snapshot failed: %v", err)
		}
		second, err := Bytes(s2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("codec is not a fixed point: %d vs %d bytes", len(first), len(second))
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed seed-v3* files. Gated
// behind WRITE_FUZZ_CORPUS so normal runs never touch the files. The
// version-1 and version-2 seeds are not written: nothing here encodes
// those versions any more.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the seed corpus")
	}
	v3 := tinyV3(t)
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
	write("seed-v3", v3)
	write("seed-v3-truncated", v3[:len(v3)/3])
	write("seed-v3-badcrc", badCRC(t, v3))
	write("seed-v3-badindex", badIndex(t, v3))
}
