package main

import (
	"sort"
	"time"

	"salsa"
)

// warmup runs before every timed window: chunk pools fill, the shard's
// buffers grow and the scheduler settles. It is not measured.
const warmup = time.Second

// drainTimeout bounds how long a run waits, after the load stops, for
// the tasks still in flight. A task not delivered by then is lost.
const drainTimeout = 5 * time.Second

// setupRepeats is how many times a run builds its system to time set-up;
// the median is reported.
const setupRepeats = 25

// runConfig is one run of one workload.
type runConfig struct {
	seconds int
	trace   bool
	in      inputs
}

// outcome is what one run of a workload measured.
type outcome struct {
	v       verdict
	refused int64 // offered tasks the program refused (shed) or errored on

	window
	ledgerBytes uint64 // heap held by the run's ledgers
	lat         *latencySummary
	// counters holds layer-counter deltas over the window and the run's
	// health counts, under the keys layerMetrics reads.
	counters map[string]float64
	bufs     []*spanBuf
}

func (o *outcome) tps() float64 { return float64(o.tasks) / o.secs }

// failed counts offered tasks that were not delivered exactly once.
func (o *outcome) failed() int64 { return o.v.lost + o.v.dup + o.refused }

// clock reads nanoseconds since a run's epoch on the monotonic clock.
type clock struct{ epoch time.Time }

func (c clock) ns() int64 { return int64(time.Since(c.epoch)) }

// timedWindow waits until the window opens at t0, then measures it for
// the given seconds: delivered and the host's steal ticks are read at
// both edges and at every second between, snap at both edges (for
// layer-counter deltas), and the probe watches the process in between.
func timedWindow(t0 time.Time, seconds int, delivered func() int64, snap func(end bool)) (w window) {
	time.Sleep(time.Until(t0))
	snap(false)
	p := startProbe()
	start := time.Now()
	d0, prevT, prevD := delivered(), start, delivered()
	prevSteal, prevTotal := cpuTicks()
	for s := 1; s <= seconds; s++ {
		time.Sleep(time.Until(t0.Add(time.Duration(s) * time.Second)))
		d, now := delivered(), time.Now()
		steal, total := cpuTicks()
		w.perSecond = append(w.perSecond, float64(d-prevD)/now.Sub(prevT).Seconds())
		w.stealPerSecond = append(w.stealPerSecond, ratio(float64(steal-prevSteal), float64(total-prevTotal)))
		prevT, prevD, prevSteal, prevTotal = now, d, steal, total
	}
	w.tasks = prevD - d0
	w.secs = prevT.Sub(start).Seconds()
	w.probe = p.finish()
	snap(true)
	return w
}

// window is what timedWindow measured.
type window struct {
	tasks          int64     // tasks delivered inside the window
	secs           float64   // the window's measured length
	perSecond      []float64 // delivery rate in each second of the window
	stealPerSecond []float64 // share of the host's CPU ticks stolen in each second
	probe          probeResult
}

// quietStealFrac is the host steal below which a second always counts
// as quiet.
const quietStealFrac = 0.05

// quiet returns the seconds the end-to-end medians are taken over: those
// whose host steal is at most the window's median steal or
// quietStealFrac, whichever is larger. On a shared host the steal time
// comes in bursts of seconds, and a second the host took a fifth of the
// CPU from measures the neighbours, not the program; a run on a quiet
// host keeps every second.
func (w *window) quiet() []int {
	limit := max(quietStealFrac, median(w.stealPerSecond))
	var idx []int
	for i, s := range w.stealPerSecond {
		if s <= limit {
			idx = append(idx, i)
		}
	}
	return idx
}

// throughput is the median delivery rate over the quiet seconds.
func (w *window) throughput() float64 {
	var vs []float64
	for _, i := range w.quiet() {
		vs = append(vs, w.perSecond[i])
	}
	return median(vs)
}

// medianSetup times build setupRepeats times and returns the median in
// seconds. build returns a function that tears the system down again;
// tear-down is not timed.
func medianSetup(build func() (func(), error)) (float64, error) {
	ts := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		closeFn, err := build()
		d := time.Since(start).Seconds()
		if err != nil {
			return 0, err
		}
		closeFn()
		ts = append(ts, d)
	}
	sort.Float64s(ts)
	return ts[len(ts)/2], nil
}

// poolCounters returns the pool-census deltas between two snapshots
// under the core.* keys.
func poolCounters(a, b salsa.Stats) map[string]float64 {
	return map[string]float64{
		"core.gets":           float64(b.Gets - a.Gets),
		"core.fastpath":       float64(b.FastPath - a.FastPath),
		"core.steals":         float64(b.Steals - a.Steals),
		"core.steal_attempts": float64(b.StealAttempts - a.StealAttempts),
		"core.cas":            float64(b.CAS - a.CAS),
		"core.chunk_allocs":   float64(b.ChunkAllocs - a.ChunkAllocs),
		"core.chunk_reuses":   float64(b.ChunkReuses - a.ChunkReuses),
		"core.force_puts":     float64(b.ForcePuts - a.ForcePuts),
		"core.parks":          float64(b.Parks - a.Parks),
	}
}
