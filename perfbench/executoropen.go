package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"salsa"
	"salsa/executor"
)

// lateBy is the generator lateness past which a dispatch counts as late.
const lateBy = time.Millisecond

func newOpenExecutor() (*executor.Executor, error) {
	return executor.New(executor.Config{
		Workers:     1,
		SubmitLanes: 1,
		Admission: &salsa.AdmissionConfig{
			Rate:        openAdmitRate,
			Burst:       openAdmitRate / 10,
			HighReserve: openAdmitRate / 100,
		},
	})
}

func setupExecutorOpen() (float64, error) {
	return medianSetup(func() (func(), error) {
		ex, err := newOpenExecutor()
		if err != nil {
			return nil, err
		}
		return func() { ex.Shutdown(true) }, nil
	})
}

func admissionTotals(c salsa.AdmissionCounters) (admits, sheds int64) {
	for _, n := range c.Admits {
		admits += n
	}
	for _, m := range c.Sheds {
		for _, n := range m {
			sheds += n
		}
	}
	return admits, sheds
}

// runExecutorOpen is the open loop: one generator goroutine offers the
// seeded Poisson schedule through TrySubmitClass whether or not the
// executor keeps up. Latency runs from each task's intended arrival, not
// from its dispatch, so a stalled generator or worker charges the wait
// to every arrival behind the stall.
func runExecutorOpen(rc runConfig) (outcome, error) {
	ex, err := newOpenExecutor()
	if err != nil {
		return outcome{}, err
	}
	at, classes := rc.in.arriveAt, rc.in.classes
	n := len(at)
	// The worker is the only goroutine that runs tasks, so its ledger,
	// histograms and span buffer are single-writer; Shutdown(true) orders
	// them before the reads below.
	workL, shedL := newLedger(n), newLedger(n)
	lat := newWindowHists(rc.seconds)
	var genBuf, workBuf *spanBuf
	if rc.trace {
		genBuf, workBuf = newSpanBuf(spanBufCap), newSpanBuf(spanBufCap)
	}
	var delivered, refused, late, dispatched atomic.Int64

	clk := clock{epoch: time.Now().Add(10 * time.Millisecond)}
	t0ns := int64(warmup)
	t1ns := t0ns + int64(rc.seconds)*int64(time.Second)
	done := make(chan struct{})
	go func() { // generator
		defer close(done)
		for i := range at {
			due := at[i]
			for {
				now := clk.ns()
				if now >= due {
					if due >= t0ns && due < t1ns {
						dispatched.Add(1)
						if now-due > int64(lateBy) {
							late.Add(1)
						}
					}
					break
				}
				if gap := due - now; gap > int64(2*time.Millisecond) {
					time.Sleep(time.Duration(gap) - time.Millisecond)
				} else {
					runtime.Gosched()
				}
			}
			id := int64(i)
			traced := genBuf != nil
			task := func() {
				start := clk.ns()
				lat.observe(due-t0ns, start-due)
				workL.record(uint64(id))
				delivered.Add(1)
				if traced {
					end := clk.ns()
					workBuf.add(span{name: spTask, parent: spArrival, parentID: id, start: start, end: end, id: id, n: 1})
					workBuf.add(span{name: spArrival, start: due, end: end, id: id, n: 1})
				}
			}
			var st int64
			if traced {
				st = clk.ns()
			}
			err := ex.TrySubmitClass(task, classes[i])
			if traced {
				genBuf.add(span{name: spSubmit, parent: spArrival, parentID: id, start: st, end: clk.ns(), id: id, n: 1})
			}
			if err != nil { // a shed or any other refusal: failed, never lost
				refused.Add(1)
				shedL.record(uint64(id))
			}
		}
	}()

	var s0, s1 salsa.Stats
	var a0, a1 salsa.AdmissionCounters
	win := timedWindow(clk.epoch.Add(warmup), rc.seconds, delivered.Load, func(end bool) {
		if end {
			s1, a1 = ex.Stats(), ex.AdmissionCounters()
		} else {
			s0, a0 = ex.Stats(), ex.AdmissionCounters()
		}
	})
	<-done
	deadline := time.Now().Add(drainTimeout)
	for delivered.Load()+refused.Load() < int64(n) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ex.Shutdown(true)

	o := outcome{
		v:           verify(int64(n), workL, shedL),
		refused:     refused.Load(),
		ledgerBytes: ledgerBytes(workL, shedL),
		window:      win,
		lat:         summarize(rc.seconds, lat),
		counters:    poolCounters(s0, s1),
		bufs:        []*spanBuf{genBuf, workBuf},
	}
	admits0, sheds0 := admissionTotals(a0)
	admits1, sheds1 := admissionTotals(a1)
	o.counters["admission.admits"] = float64(admits1 - admits0)
	o.counters["admission.sheds"] = float64(sheds1 - sheds0)
	o.counters["gen.dispatched"] = float64(dispatched.Load())
	o.counters["gen.late"] = float64(late.Load())
	return o, nil
}
