package main

// Smoke tests for the hybridscan CLI: flag errors, exit-on-bad-input,
// the -json schema over a real on-disk world, and -export.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hybridrel"
	"hybridrel/internal/cli"
	"hybridrel/internal/golden"
)

var (
	worldOnce sync.Once
	worldDir  string
	worldErr  error
)

// worldOnDisk writes the canonical small world's archives and IRR to a
// shared temp directory once.
func worldOnDisk(t *testing.T) string {
	t.Helper()
	worldOnce.Do(func() {
		dir, err := os.MkdirTemp("", "hybridscan-world-*")
		if err != nil {
			worldErr = err
			return
		}
		w, err := hybridrel.Synthesize(hybridrel.SmallWorldConfig())
		if err != nil {
			worldErr = err
			return
		}
		write := func(name string, data []byte) {
			if worldErr == nil {
				worldErr = os.WriteFile(filepath.Join(dir, name), data, 0o644)
			}
		}
		for i, a := range w.Archives4 {
			write(fmt.Sprintf("rib.ipv4.%02d.mrt", i), a)
		}
		for i, a := range w.Archives6 {
			write(fmt.Sprintf("rib.ipv6.%02d.mrt", i), a)
		}
		write("irr.db", w.IRR)
		worldDir = dir
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return worldDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if worldDir != "" {
		os.RemoveAll(worldDir)
	}
	os.Exit(code)
}

func TestRunFlagErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-nope"}, &out, &errb); !errors.Is(err, cli.ErrUsage) {
		t.Fatalf("bad flag: err = %v, want cli.ErrUsage", err)
	}
	errb.Reset()
	if err := run(nil, &out, &errb); !errors.Is(err, cli.ErrUsage) {
		t.Fatalf("missing -v4/-v6: err = %v, want cli.ErrUsage", err)
	}
	if !strings.Contains(errb.String(), "usage:") {
		t.Errorf("stderr did not print usage: %q", errb.String())
	}
}

func TestRunBadInput(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-v4", "/does/not/exist.mrt", "-v6", "/does/not/exist6.mrt"}, &out, &errb)
	if err == nil || errors.Is(err, cli.ErrUsage) {
		t.Fatalf("nonexistent archives: err = %v, want a real error", err)
	}
	// A directory without archives is an explicit error, not a silent
	// empty scan.
	empty := t.TempDir()
	if err := run([]string{"-v4", empty, "-v6", empty}, &out, &errb); err == nil ||
		!strings.Contains(err.Error(), "no *.mrt files") {
		t.Fatalf("empty dir: err = %v, want 'no *.mrt files'", err)
	}
}

func TestRunJSONSchemaAndExport(t *testing.T) {
	dir := worldOnDisk(t)
	snapPath := filepath.Join(t.TempDir(), "world.snap")
	var out, errb bytes.Buffer
	err := run([]string{
		"-irr", filepath.Join(dir, "irr.db"),
		"-v4", dir, "-v6", dir,
		"-export", snapPath, "-json",
	}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}

	var doc scanJSON
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("-json output is not the scan schema: %v", err)
	}
	g := golden.Small()
	// The dir holds both planes' archives; each plane's ingest takes
	// only its own records, so the golden numbers still hold.
	if doc.Stats.Coverage.Paths6 != g.Coverage.Paths6 || doc.Stats.Census.Hybrid != g.Hybrid {
		t.Errorf("scan stats = %d paths6 / %d hybrids, want golden %d / %d",
			doc.Stats.Coverage.Paths6, doc.Stats.Census.Hybrid, g.Coverage.Paths6, g.Hybrid)
	}
	if len(doc.Hybrids) != g.Hybrid {
		t.Errorf("hybrid list has %d entries, want %d", len(doc.Hybrids), g.Hybrid)
	}

	snap, err := hybridrel.OpenSnapshot(snapPath)
	if err != nil {
		t.Fatalf("exported snapshot unreadable: %v", err)
	}
	if len(snap.Hybrids) != g.Hybrid {
		t.Errorf("exported snapshot has %d hybrids, want %d", len(snap.Hybrids), g.Hybrid)
	}

	// The export is the small world's v3 snapshot, byte for byte, and
	// can be served in place.
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(raw)
	if got := h.Sum64(); got != golden.SmallSnapshotV3FNV {
		t.Errorf("exported snapshot FNV-64a = %#016x, want golden v3 %#016x", got, golden.SmallSnapshotV3FNV)
	}
	mapped, err := hybridrel.MapSnapshot(snapPath)
	if err != nil {
		t.Fatalf("exported snapshot cannot be mapped: %v", err)
	}
	defer mapped.Close()
	if err := mapped.Verify(); err != nil {
		t.Errorf("mapped export fails Verify: %v", err)
	}
}

func TestRunTables(t *testing.T) {
	dir := worldOnDisk(t)
	var out, errb bytes.Buffer
	err := run([]string{
		"-irr", filepath.Join(dir, "irr.db"),
		"-v4", dir, "-v6", dir, "-top", "3",
	}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"dataset", "hybrid links:", "top 3 hybrids", "valley paths:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table output missing %q", want)
		}
	}

	// A negative -top clamps to zero instead of panicking on the slice.
	out.Reset()
	err = run([]string{
		"-irr", filepath.Join(dir, "irr.db"),
		"-v4", dir, "-v6", dir, "-top", "-1",
	}, &out, &errb)
	if err != nil {
		t.Fatalf("run -top -1: %v", err)
	}
	if !strings.Contains(out.String(), "top 0 hybrids") {
		t.Errorf("-top -1 did not clamp to an empty list")
	}
}
