package serve

// Refcounted state lifecycle and mmap hot-swap tests. The white-box
// tests observe snapshot.Close through AttachCloser counters to pin
// exactly when a retired state's backing is released: never while the
// installed pointer, a history-ring slot, or an in-flight request
// still holds it, and immediately when the last holder lets go. The
// swap-under-load test exercises the real thing — fixed-width files
// served through snapshot.Map, hammered by concurrent readers while a
// reloader maps fresh copies — and must produce zero non-200s and no
// SIGBUS under -race: a mapping unmapped while a request reads it
// would crash the run outright.

import (
	"context"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridrel/internal/snapshot"
)

// countedSnap captures a fresh snapshot of the fixture analysis whose
// Close increments n. Capture shares the analysis's immutable tables,
// so every copy answers identically.
func countedSnap(t *testing.T, n *atomic.Int32) *snapshot.Snapshot {
	t.Helper()
	a, _, _ := fixtures(t)
	s := snapshot.Capture(a)
	snapshot.AttachCloser(s, func() error { n.Add(1); return nil })
	return s
}

func TestStateRefcountLifecycle(t *testing.T) {
	t.Run("install replacement closes the old state", func(t *testing.T) {
		var cA, cB atomic.Int32
		srv := New(countedSnap(t, &cA))
		if got := cA.Load(); got != 0 {
			t.Fatalf("installed snapshot closed %d times while serving", got)
		}
		srv.Load(countedSnap(t, &cB))
		if got := cA.Load(); got != 1 {
			t.Fatalf("replaced snapshot closed %d times, want 1", got)
		}
		if got := cB.Load(); got != 0 {
			t.Fatalf("new snapshot closed %d times while serving", got)
		}
	})

	t.Run("in-flight reference defers the close", func(t *testing.T) {
		var cA, cB atomic.Int32
		srv := New(countedSnap(t, &cA))
		st := srv.acquireState()
		if st == nil {
			t.Fatal("acquireState returned nil with a snapshot installed")
		}
		srv.Load(countedSnap(t, &cB))
		if got := cA.Load(); got != 0 {
			t.Fatalf("snapshot closed %d times while a request still holds it", got)
		}
		st.release()
		if got := cA.Load(); got != 1 {
			t.Fatalf("snapshot closed %d times after the last holder released, want 1", got)
		}
	})

	t.Run("history ring keeps evicted generations alive until rolloff", func(t *testing.T) {
		var cA, cB, cC atomic.Int32
		srv := New(countedSnap(t, &cA), WithHistory(2))
		srv.Load(countedSnap(t, &cB))
		// A lost its installed reference but sits in the ring [A, B].
		if got := cA.Load(); got != 0 {
			t.Fatalf("ring-held snapshot closed %d times", got)
		}
		srv.Load(countedSnap(t, &cC))
		// Ring is [B, C]; A rolled off and must close exactly once.
		if got := cA.Load(); got != 1 {
			t.Fatalf("rolled-off snapshot closed %d times, want 1", got)
		}
		if cB.Load() != 0 || cC.Load() != 0 {
			t.Fatalf("retained snapshots closed (B=%d, C=%d)", cB.Load(), cC.Load())
		}
	})

	t.Run("time-travel reference survives ring eviction", func(t *testing.T) {
		var cA, cB atomic.Int32
		srv := New(countedSnap(t, &cA), WithHistory(1))
		// Borrow the ring entry the way stateAt does: ref under histMu.
		srv.histMu.Lock()
		st := srv.history[0]
		st.ref()
		srv.histMu.Unlock()
		srv.Load(countedSnap(t, &cB)) // evicts A from the depth-1 ring
		if got := cA.Load(); got != 0 {
			t.Fatalf("snapshot closed %d times while a time-travel read holds it", got)
		}
		st.release()
		if got := cA.Load(); got != 1 {
			t.Fatalf("snapshot closed %d times after the time-travel read, want 1", got)
		}
	})
}

// TestMmapHotSwapUnderLoad is the satellite contract for -mmap serving:
// concurrent readers against a mapped fixed-width snapshot, racing a
// reloader that repeatedly maps fresh files, observe zero non-200s —
// and, because the readers' answers come straight out of the mapped
// pages, any premature munmap would kill the process with SIGBUS/SEGV
// rather than fail an assertion. Run with -race.
func TestMmapHotSwapUnderLoad(t *testing.T) {
	a, _, _ := fixtures(t)
	snap := snapshot.Capture(a)
	if len(snap.Hybrids) == 0 {
		t.Fatal("fixture world has no hybrids; the query set would be empty")
	}

	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "a.snap2"), filepath.Join(dir, "b.snap2")}
	for _, p := range paths {
		if err := snapshot.WriteFileV2(p, snap); err != nil {
			t.Fatal(err)
		}
	}
	// The two files hold the same world, so every query below answers
	// 200 regardless of which generation serves it; what alternating
	// files exercise is the mapping lifecycle, not the content.
	var flip atomic.Int64
	src := func(context.Context) (*snapshot.Snapshot, error) {
		return snapshot.Map(paths[flip.Add(1)%2])
	}
	first, err := snapshot.Map(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	srv := New(first, WithSource(src), WithHistory(2))

	// Query mix: hybrid links (present in both planes → always 200),
	// their endpoint ASes, stats, and the probes.
	var urls []string
	for i, h := range snap.Hybrids {
		if i == 8 {
			break
		}
		urls = append(urls,
			fmt.Sprintf("/v1/rel?a=%d&b=%d", uint32(h.Key.Lo), uint32(h.Key.Hi)),
			fmt.Sprintf("/v1/as/%d", uint32(h.Key.Lo)))
	}
	urls = append(urls, "/v1/stats", "/v1/hybrids?limit=5", "/healthz", "/readyz")
	atParam := "?at=" + url.QueryEscape(time.Now().Add(time.Hour).UTC().Format(time.RFC3339))

	const readers = 8
	done := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				u := urls[(i+r)%len(urls)]
				if i%7 == 0 && strings.HasPrefix(u, "/v1/rel?") {
					// Time travel exercises the ring-borrow path too.
					u += "&" + atParam[1:]
				}
				if code := get(t, srv, "GET", u, nil); code != 200 {
					select {
					case errc <- fmt.Sprintf("GET %s -> %d", u, code):
					default:
					}
					return
				}
			}
		}(r)
	}

	const reloads = 40
	for i := 0; i < reloads; i++ {
		if err := srv.Reload(context.Background()); err != nil {
			t.Errorf("reload %d: %v", i, err)
			break
		}
	}
	close(done)
	wg.Wait()
	select {
	case msg := <-errc:
		t.Fatalf("non-200 under mmap hot swap: %s", msg)
	default:
	}

	// Mapping accounting: after the readers drain, the only live
	// mappings of the snapshot files are the installed state and its
	// ring companions (depth 2, and the installed state occupies one of
	// those slots) — every earlier generation must have been unmapped.
	if runtime.GOOS == "linux" {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		live := 0
		for _, line := range strings.Split(string(maps), "\n") {
			if strings.Contains(line, dir) {
				live++
			}
		}
		if live > 2 {
			t.Errorf("%d snapshot mappings still live after %d reloads, want <= 2 (ring depth)", live, reloads)
		}
		if live == 0 {
			t.Error("no live snapshot mapping found; the server is not serving from the map")
		}
	}
}

// TestSharedMappedSnapshotInstalls installs one mapped snapshot twice
// in one server and once more in a second, then serves requests,
// history reads and reloads on both under -race. References are
// counted on the snapshot, not per install, so no retirement unmaps
// pages another install still serves — a premature munmap kills the
// process with a fault rather than failing an assertion — and once
// every install has retired and rolled off its ring, the mapping is
// gone.
func TestSharedMappedSnapshotInstalls(t *testing.T) {
	_, snap, _ := fixtures(t)
	dir := t.TempDir()
	shared, other := filepath.Join(dir, "shared.snap"), filepath.Join(dir, "other.snap")
	for _, p := range []string{shared, other} {
		if err := snapshot.WriteFileV2(p, snap); err != nil {
			t.Fatal(err)
		}
	}
	m, err := snapshot.Map(shared)
	if err != nil {
		t.Fatal(err)
	}
	src := func(context.Context) (*snapshot.Snapshot, error) { return snapshot.Map(other) }
	a := New(m, WithSource(src), WithHistory(2))
	a.Load(m)
	b := New(m, WithSource(src), WithHistory(2))

	h := snap.Hybrids[0].Key
	urls := []string{
		fmt.Sprintf("/v1/as/%d", uint32(h.Lo)),
		fmt.Sprintf("/v1/rel?a=%d&b=%d", uint32(h.Lo), uint32(h.Hi)),
		"/v1/stats",
	}
	for _, srv := range []*Server{a, b} {
		for _, u := range urls {
			if code := get(t, srv, "GET", u, nil); code != 200 {
				t.Fatalf("GET %s on a double-installed snapshot -> %d", u, code)
			}
		}
	}

	// ?at= an hour ahead reads the newest ring entry and must answer;
	// ?at= a server's first install reads m until it rolls off the
	// ring (410).
	at := func(t time.Time) string { return "at=" + url.QueryEscape(t.UTC().Format(time.RFC3339Nano)) }
	future := at(time.Now().Add(time.Hour))
	done := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan string, 4)
	for r, srv := range []*Server{a, b, a, b} {
		first := at(srv.history[0].loadedAt)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				u := urls[(i+r)%len(urls)]
				sep := "?"
				if strings.Contains(u, "?") {
					sep = "&"
				}
				code, ok := get(t, srv, "GET", u, nil), true
				switch {
				case u == "/v1/stats":
				case i%3 == 1:
					code = get(t, srv, "GET", u+sep+future, nil)
				case i%3 == 2:
					code = get(t, srv, "GET", u+sep+first, nil)
					ok = code == 410
				}
				if code != 200 && !ok {
					errc <- fmt.Sprintf("GET %s (read %d) -> %d", u, i, code)
					return
				}
			}
		}()
	}
	for i := 0; i < 6; i++ {
		for _, srv := range []*Server{a, b} {
			if err := srv.Reload(context.Background()); err != nil {
				t.Errorf("reload %d: %v", i, err)
			}
		}
	}
	close(done)
	wg.Wait()
	select {
	case msg := <-errc:
		t.Fatalf("shared mapped snapshot: %s", msg)
	default:
	}

	if runtime.GOOS == "linux" {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(maps), shared); n != 0 {
			t.Errorf("%d mappings of the shared snapshot remain after every install retired, want 0", n)
		}
		if strings.Count(string(maps), other) == 0 {
			t.Error("no mapping of the reloaded snapshot is live; the servers are not serving from the map")
		}
	}
}
