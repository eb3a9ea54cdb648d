package main

// Process-wide measurements: peak resident set size, CPU time and the
// Go runtime's allocation and GC counters.

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// resetPeakRSS resets the kernel's VmHWM for this process to the
// current RSS, so a later peakRSSMB covers only what follows.
func resetPeakRSS() error {
	// Writing 5 to clear_refs resets the peak RSS (Linux ≥ 4.0).
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB returns VmHWM, the peak resident set size, in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks returns the machine's stolen and total CPU time in clock
// ticks from /proc/stat: on a virtual machine, steal is the time the
// hypervisor ran something else while this machine had work.
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// procSample is a reading of the process counters at one instant.
type procSample struct {
	wall         time.Time
	cpu          time.Duration
	mallocs      uint64
	alloc        uint64 // cumulative bytes allocated
	gc           uint32
	steal, ticks uint64
}

func sampleProc() procSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	steal, ticks := hostTicks()
	return procSample{wall: time.Now(), cpu: cpuTime(), mallocs: m.Mallocs, alloc: m.TotalAlloc, gc: m.NumGC, steal: steal, ticks: ticks}
}

// allocatedBytes returns the cumulative bytes allocated so far.
func allocatedBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// recordProcess reports the process-wide per-layer metrics for ops
// operations between two samples.
func recordProcess(rec *recorder, a, b procSample, ops int) {
	wall := b.wall.Sub(a.wall).Seconds()
	cpu := (b.cpu - a.cpu).Seconds()
	n := float64(max(ops, 1))
	rec.set("process.cpu_util", "ratio", ratio(cpu, wall*float64(runtime.GOMAXPROCS(0))), ops)
	rec.set("process.cpu_ms_per_op", "ms", cpu*1e3/n, ops)
	rec.set("process.allocs_per_op", "count", float64(b.mallocs-a.mallocs)/n, ops)
	rec.set("process.alloc_mb_per_op", "MB", float64(b.alloc-a.alloc)/n/(1<<20), ops)
	rec.set("process.gc_cycles", "count", float64(b.gc-a.gc), ops)
	rec.set("host.steal_share", "ratio", ratio(float64(b.steal-a.steal), float64(b.ticks-a.ticks)), ops)
}
