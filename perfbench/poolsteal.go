package main

import (
	"sync"
	"sync/atomic"
	"time"

	"salsa"
)

// stealTask is the pool-steal task. Tasks live in a ring of slots that
// the owner reuses, so the loop allocates nothing; busy keeps a slot out
// of reuse until a consumer has read it.
type stealTask struct {
	id    uint64
	putNs int64 // Put time of a latency-sampled task
	busy  atomic.Bool
	_     [64 - 20]byte // one slot per cache line: no false sharing between slots
}

// paddedInt64 keeps a counter on its own cache line, so that the two
// goroutines' counters do not slow each other down.
type paddedInt64 struct {
	atomic.Int64
	_ [56]byte
}

// stealSlots is the slot ring's size: several times the tasks in flight,
// so the owner almost never has to skip a busy slot.
const stealSlots = 4 * stealInFlight

// stealLatEvery samples the Put-to-TryGet latency of one task in this
// many: a clock read per task would double the cost of the operation
// being measured.
const stealLatEvery = 64

// Traced-run sampling: one owner run in stealTraceRuns and one thief call
// in stealTraceThief record spans, so a run's spans fit in memory.
const (
	stealTraceRuns  = 64
	stealTraceThief = 256
	spanBufCap      = 1 << 18
)

// newStealPool builds the pool-steal pool: SALSA with one producer and
// two consumers on a pinned synthetic topology, so that the producer's
// home consumer does not depend on the host.
func newStealPool() (*salsa.Pool[stealTask], error) {
	return salsa.New[stealTask](salsa.Config{Producers: 1, Consumers: 2, NUMANodes: 1, CoresPerNode: 2})
}

func setupPoolSteal() (float64, error) {
	return medianSetup(func() (func(), error) {
		p, err := newStealPool()
		if err != nil {
			return nil, err
		}
		return p.Close, nil
	})
}

// runPoolSteal is the closed steal loop. The owner goroutine drives
// producer 0 and its home consumer: it takes with TryGet until the next
// seeded put run fits under stealInFlight, then puts the run. The thief
// goroutine drives the other consumer with TryGet only, so every task it
// gets was stolen from the owner's pool.
func runPoolSteal(rc runConfig) (outcome, error) {
	pool, err := newStealPool()
	if err != nil {
		return outcome{}, err
	}
	defer pool.Close()
	home := pool.ProducerAccessList(0)[0]
	prod, own, thief := pool.Producer(0), pool.Consumer(home), pool.Consumer(1-home)

	slots := make([]stealTask, stealSlots)
	clk := clock{epoch: time.Now()}
	t0 := clk.epoch.Add(warmup)
	t0ns := int64(warmup)
	expect := 2_500_000 * (rc.seconds + 3)
	ownL, thiefL := newLedger(expect), newLedger(expect)
	ownLat, thiefLat := newWindowHists(rc.seconds), newWindowHists(rc.seconds)
	var ownBuf, thiefBuf *spanBuf
	if rc.trace {
		ownBuf, thiefBuf = newSpanBuf(spanBufCap), newSpanBuf(spanBufCap)
	}

	var (
		stop      atomic.Bool // the window is over: the owner stops putting
		ownerDone atomic.Bool // the owner put its last task; put is final
		giveUp    atomic.Bool // the drain timed out
	)
	// put (tasks put so far) and ownerGot are written by the owner,
	// thiefGot by the thief.
	var counts struct{ put, ownerGot, thiefGot paddedInt64 }
	put, ownerGot, thiefGot := &counts.put, &counts.ownerGot, &counts.thiefGot
	deliver := func(t *stealTask, l *ledger, lat windowHists) {
		id, putNs := t.id, t.putNs
		t.busy.Store(false)
		l.record(id)
		if id%stealLatEvery == 0 {
			lat.observe(putNs-t0ns, clk.ns()-putNs)
		}
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // thief
		defer wg.Done()
		var got, calls int64
		for {
			traced := thiefBuf != nil && calls%stealTraceThief == 0
			calls++
			var st int64
			if traced {
				st = clk.ns()
			}
			t, ok := thief.TryGet()
			if traced {
				sp := span{name: spThiefGet, start: st, end: clk.ns(), id: -1}
				if ok {
					sp.id, sp.n = int64(t.id), 1
				}
				thiefBuf.add(sp)
			}
			if ok {
				deliver(t, thiefL, thiefLat)
				got++
				thiefGot.Store(got)
				continue
			}
			if giveUp.Load() || ownerDone.Load() && put.Load() == ownerGot.Load()+got {
				return
			}
		}
	}()
	go func() { // owner
		defer wg.Done()
		var got, id int64
		slot := 0
		runLens := rc.in.runLens
		take := func(run int64, traced bool) {
			var st int64
			if traced {
				st = clk.ns()
			}
			t, ok := own.TryGet()
			if traced {
				sp := span{name: spOwnerGet, parent: spRun, parentID: run, start: st, end: clk.ns(), id: -1}
				if ok {
					sp.id, sp.n = int64(t.id), 1
				}
				ownBuf.add(sp)
			}
			if ok {
				deliver(t, ownL, ownLat)
				got++
			}
		}
		for r := int64(0); !stop.Load(); r++ {
			n := int64(runLens[r%tableLen])
			traced := ownBuf != nil && r%stealTraceRuns == 0
			var runStart int64
			if traced {
				runStart = clk.ns()
			}
			take(r, traced)
			for id-(got+thiefGot.Load())+n > stealInFlight {
				take(r, traced)
			}
			ownerGot.Store(got)
			for i := int64(0); i < n; i++ {
				for slots[slot].busy.Load() {
					slot = (slot + 1) % stealSlots
				}
				t := &slots[slot]
				slot = (slot + 1) % stealSlots
				t.id = uint64(id)
				if id%stealLatEvery == 0 {
					t.putNs = clk.ns()
				}
				t.busy.Store(true)
				var st int64
				if traced {
					st = clk.ns()
				}
				prod.Put(t)
				if traced {
					ownBuf.add(span{name: spPut, parent: spRun, parentID: r, start: st, end: clk.ns(), id: id, n: 1})
				}
				id++
			}
			put.Store(id)
			if traced {
				ownBuf.add(span{name: spRun, start: runStart, end: clk.ns(), id: r, n: int32(n)})
			}
		}
		ownerDone.Store(true)
		deadline := time.Now().Add(drainTimeout)
		for i := 0; got+thiefGot.Load() < id; i++ {
			if i%1024 == 0 && time.Now().After(deadline) {
				giveUp.Store(true)
				break
			}
			take(-1, false)
			ownerGot.Store(got)
		}
	}()

	var s0, s1 salsa.Stats
	win := timedWindow(t0, rc.seconds,
		func() int64 { return ownerGot.Load() + thiefGot.Load() },
		func(end bool) {
			if end {
				s1 = pool.Stats()
			} else {
				s0 = pool.Stats()
			}
		})
	stop.Store(true)
	wg.Wait()

	return outcome{
		v:           verify(put.Load(), ownL, thiefL),
		ledgerBytes: ledgerBytes(ownL, thiefL),
		window:      win,
		lat:         summarize(rc.seconds, ownLat, thiefLat),
		counters:    poolCounters(s0, s1),
		bufs:        []*spanBuf{ownBuf, thiefBuf},
	}, nil
}
