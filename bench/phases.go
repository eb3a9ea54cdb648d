package main

import (
	"context"
	"runtime/debug"
	"time"
)

// setupReps is how many times a run sets the system up; setup_s is the
// median of their times.
const setupReps = 5

// inputsReady marks the end of input generation: it reports how long
// generation took, hands the generator's garbage back to the OS and
// resets the peak RSS, so rss_peak_mb covers set-up and the measured
// phases and nothing before them.
func (e *env) inputsReady(start time.Time) error {
	e.rec.set("harness.gen_s", "s", time.Since(start).Seconds(), 1)
	debug.FreeOSMemory()
	return resetPeakRSS()
}

// setUp sets the system up setupReps times and reports setup_s. Every
// set-up but the last is torn down; the last one's system is returned.
func setUp[T any](e *env, setup func() (T, func(), error)) (T, error) {
	var (
		sys   T
		times dist
	)
	for i := 0; i < setupReps; i++ {
		// Every set-up starts from a heap handed back to the OS.
		debug.FreeOSMemory()
		start := time.Now()
		s, teardown, err := setup()
		if err != nil {
			return sys, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupReps-1 {
			teardown()
			continue
		}
		sys = s
	}
	e.rec.set("setup_s", "s", times.median(), len(times))
	return sys, nil
}

// phase is one measured stretch of a run: the latency of every
// user-facing operation completed in it, and its wall time.
type phase struct {
	ops  dist // milliseconds
	wall time.Duration
}

// measure runs the workload's measured phases. An untraced run measures
// for the whole run length. A traced run measures untraced for the
// first half, as the reference, and traced for the second: its
// per-layer and process metrics come from the traced half, and the
// difference between the halves' medians is the tracing overhead. root
// names the span of one operation, whose self time — the time no stage
// span accounts for — is the residual.
func (e *env) measure(ctx context.Context, root string, fn func(context.Context, time.Duration) (phase, error)) error {
	d := e.seconds
	if e.traced {
		d /= 2
	}
	// The phases start from the set-up's heap without its garbage.
	debug.FreeOSMemory()
	a := sampleProc()
	ref, err := fn(ctx, d)
	if err != nil {
		return err
	}
	b := sampleProc()
	e.rec.setDist("op", "ms", ref.ops)
	e.rec.set("ops_per_s", "1/s", float64(len(ref.ops))/ref.wall.Seconds(), len(ref.ops))
	if !e.traced {
		recordProcess(e.rec, a, b, len(ref.ops))
		return e.recordPeakRSS()
	}

	e.tracer = newTracer()
	a = sampleProc()
	tr, err := fn(ctx, d)
	if err != nil {
		return err
	}
	b = sampleProc()
	recordProcess(e.rec, a, b, len(tr.ops))
	e.rec.set("trace.overhead_share", "ratio", (tr.ops.median()-ref.ops.median())/ref.ops.median(), len(tr.ops))

	spans := e.tracer.Spans()
	self := SelfTimes(spans)
	var residual dist
	var selfSum, durSum float64
	for _, s := range rootsNamed(spans, root) {
		residual = append(residual, float64(self[s.ID])/1e6)
		selfSum += float64(self[s.ID])
		durSum += float64(s.Dur())
	}
	e.rec.set("trace.residual_ms", "ms", residual.median(), len(residual))
	e.rec.set("trace.residual_share", "ratio", ratio(selfSum, durSum), len(residual))
	return e.recordPeakRSS()
}

// recordPeakRSS reports the peak RSS since the inputs were ready.
func (e *env) recordPeakRSS() error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	e.rec.set("rss_peak_mb", "MB", mb, 1)
	return nil
}

// recordSpanDist reports the median and maximum duration of the spans
// with the given name under <name>_ms_p50 and <name>_ms_max.
func (e *env) recordSpanDist(name string) {
	d := dist(durationsMs(e.tracer.Spans(), name))
	e.rec.set(name+"_ms_p50", "ms", d.median(), len(d))
	e.rec.set(name+"_ms_max", "ms", d.max(), len(d))
}
