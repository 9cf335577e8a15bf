package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// fingerprint names the host a result was measured on, so that a reader
// can tell a regression from a change of machine.
func fingerprint() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("gomaxprocs=%d numcpu=%d cpu=%q go=%s kernel=%s os=%s/%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), model, runtime.Version(), kernel, runtime.GOOS, runtime.GOARCH)
}

// cpuTicks reads the aggregate line of /proc/stat: steal ticks and all
// ticks. Zero on hosts without it.
func cpuTicks() (steal, total int64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:] {
		v, _ := strconv.ParseInt(s, 10, 64)
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}

// heapSampleEvery is the live-heap sampler's period. The live heap
// changes only when a collection ends; a collection every 50 ms or less
// often is all the workloads reach, and a coarse period keeps the
// sampler's wake-ups out of the measured latencies.
const heapSampleEvery = 50 * time.Millisecond

// probe watches the process and the host over a timed window: the live
// heap after each collection, allocations, collections and steal ticks.
// The live heap is what a collection marked live. Unlike the heap in
// use it leaves out garbage awaiting collection, whose amount depends on
// when the collector happened to run.
type probe struct {
	stop    chan struct{}
	done    chan struct{}
	live    []uint64 // the live heap after each collection seen
	samples []metrics.Sample
	m0      [2]uint64
	steal0  int64
	total0  int64
}

// probeResult is what a probe saw over its window.
type probeResult struct {
	liveHeapBytes uint64 // median live heap over the window's collections
	allocs, gcs   uint64
	stealFrac     float64
}

var probeMetrics = []string{"/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles", "/gc/heap/live:bytes"}

func startProbe() *probe {
	p := &probe{stop: make(chan struct{}), done: make(chan struct{}), samples: make([]metrics.Sample, len(probeMetrics))}
	for i, name := range probeMetrics {
		p.samples[i].Name = name
	}
	metrics.Read(p.samples)
	p.m0 = [2]uint64{p.samples[0].Value.Uint64(), p.samples[1].Value.Uint64()}
	p.steal0, p.total0 = cpuTicks()
	go func() {
		defer close(p.done)
		ss := []metrics.Sample{{Name: probeMetrics[1]}, {Name: probeMetrics[2]}}
		last := p.m0[1]
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				metrics.Read(ss)
				if c := ss[0].Value.Uint64(); c != last {
					last = c
					p.live = append(p.live, ss[1].Value.Uint64())
				}
			}
		}
	}()
	return p
}

// finish ends the window. It forces a collection after reading the
// counters, so that a window without a collection of its own still
// reports the live heap it left behind.
func (p *probe) finish() probeResult {
	close(p.stop)
	<-p.done
	metrics.Read(p.samples)
	r := probeResult{allocs: p.samples[0].Value.Uint64() - p.m0[0], gcs: p.samples[1].Value.Uint64() - p.m0[1]}
	runtime.GC()
	metrics.Read(p.samples)
	live := make([]float64, 0, len(p.live)+1)
	for _, v := range append(p.live, p.samples[2].Value.Uint64()) {
		live = append(live, float64(v))
	}
	r.liveHeapBytes = uint64(median(live))
	if steal, total := cpuTicks(); total > p.total0 {
		r.stealFrac = float64(steal-p.steal0) / float64(total-p.total0)
	}
	return r
}
