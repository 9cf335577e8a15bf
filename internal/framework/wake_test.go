package framework_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"salsa/internal/check"
	"salsa/internal/core"
	"salsa/internal/framework"
	"salsa/internal/scpool"
	"salsa/internal/topology"
)

// The wake tests raise the park's fallback timer to an hour, so a parked
// waiter that returns within wakeBound was woken by a signal, not by the
// timer.
const wakeBound = time.Second

func longFallback(t *testing.T) {
	framework.SetParkTimeout(time.Hour)
	t.Cleanup(func() { framework.SetParkTimeout(0) })
}

// waitParked blocks until c is registered as a sleeper, then gives it time
// to reach its blocking select, so a later put has to wake it rather than
// be caught by the re-check that follows registration.
func waitParked(t *testing.T, c *framework.Consumer[task]) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !c.Parked() {
		if time.Now().After(deadline) {
			t.Fatal("consumer never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(5 * time.Millisecond)
}

// parkedGetWait starts GetWait on c and returns once it is parked. A
// failing test closes stop so the waiter does not outlive it.
func parkedGetWait(t *testing.T, c *framework.Consumer[task]) (got <-chan *task, stop chan struct{}) {
	t.Helper()
	ch := make(chan *task, 1)
	stop = make(chan struct{})
	go func() {
		tk, _ := c.GetWait(stop)
		ch <- tk
	}()
	waitParked(t, c)
	return ch, stop
}

func expectWoken(t *testing.T, got <-chan *task, stop chan struct{}) *task {
	t.Helper()
	select {
	case tk := <-got:
		return tk
	case <-time.After(wakeBound):
		close(stop)
		t.Fatalf("parked waiter still asleep %v later", wakeBound)
		return nil
	}
}

// TestPutWakesParkedWaiter: each put form that publishes a task wakes a
// waiter parked before it.
func TestPutWakesParkedWaiter(t *testing.T) {
	longFallback(t)
	for _, tc := range []struct {
		name string
		lane int
		put  func(p *framework.Producer[task], tk *task) bool
	}{
		{"Put", 0, func(p *framework.Producer[task], tk *task) bool { p.Put(tk); return true }},
		{"PutBatch", 0, func(p *framework.Producer[task], tk *task) bool { p.PutBatch([]*task{tk}); return true }},
		{"TryPut", 0, (*framework.Producer[task]).TryPut},
		{"TryPutBatch", 0, func(p *framework.Producer[task], tk *task) bool { return p.TryPutBatch([]*task{tk}) == 1 }},
		{"LaneFlush", 8, func(p *framework.Producer[task], tk *task) bool {
			p.Put(tk) // buffered: invisible until the flush
			p.Flush()
			return true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Spare chunks up front, so the Try forms are not refused.
			shared, err := core.NewShared[task](core.Options{ChunkSize: 8, Consumers: 1, InitialChunks: 2})
			if err != nil {
				t.Fatal(err)
			}
			fw, err := framework.New(framework.Config[task]{
				Producers: 1,
				Consumers: 1,
				LaneSize:  tc.lane,
				NewPool: func(owner, node, prods int) (scpool.SCPool[task], error) {
					return shared.NewPool(owner, node, prods)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			got, stop := parkedGetWait(t, fw.Consumer(0))
			want := &task{seq: 7}
			if !tc.put(fw.Producer(0), want) {
				close(stop)
				t.Fatal("the put refused the task")
			}
			if tk := expectWoken(t, got, stop); tk != want {
				t.Fatalf("GetWait returned %v, want the put task", tk)
			}
		})
	}
}

// hoardPool is a test substrate that hides a live owner's backlog from
// thieves: Steal succeeds only against an abandoned victim. A survivor
// parked next to it can reach the backlog only through the wake that a
// departure's epoch publish sends.
type hoardPool struct {
	owner     int
	mu        sync.Mutex
	tasks     []*task
	abandoned atomic.Bool
}

func (h *hoardPool) OwnerID() int { return h.owner }
func (h *hoardPool) Produce(p *scpool.ProducerState, t *task) bool {
	h.ProduceForce(p, t)
	return true
}
func (h *hoardPool) ProduceForce(_ *scpool.ProducerState, t *task) {
	h.mu.Lock()
	h.tasks = append(h.tasks, t)
	h.mu.Unlock()
}
func (h *hoardPool) Consume(*scpool.ConsumerState) *task { return h.take() }
func (h *hoardPool) Steal(_ *scpool.ConsumerState, victim scpool.SCPool[task]) *task {
	if v := victim.(*hoardPool); v.abandoned.Load() {
		return v.take()
	}
	return nil
}
func (h *hoardPool) take() *task {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.tasks) == 0 {
		return nil
	}
	t := h.tasks[0]
	h.tasks = h.tasks[1:]
	return t
}
func (h *hoardPool) IsEmpty() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.tasks) == 0
}
func (h *hoardPool) SetIndicator(int)        {}
func (h *hoardPool) CheckIndicator(int) bool { return true }
func (h *hoardPool) Abandon()                { h.abandoned.Store(true) }
func (h *hoardPool) Abandoned() bool         { return h.abandoned.Load() }

// TestDepartureWakesParkedSurvivor: retiring or killing a consumer that
// still holds a backlog wakes a parked survivor, which then reclaims it.
func TestDepartureWakesParkedSurvivor(t *testing.T) {
	longFallback(t)
	for _, tc := range []struct {
		name   string
		depart func(fw *framework.Framework[task], id int) error
	}{
		{"Retire", (*framework.Framework[task]).RetireConsumer},
		{"Kill", (*framework.Framework[task]).KillConsumer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fw, err := framework.New(framework.Config[task]{
				Producers: 1,
				Consumers: 2,
				Placement: topology.Place(topology.Paper32(), 1, 2, topology.PlaceInterleaved),
				NewPool: func(owner, _, _ int) (scpool.SCPool[task], error) {
					return &hoardPool{owner: owner}, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			backlog := &task{seq: 1}
			fw.Pool(0).ProduceForce(fw.Producer(0).ProducerState(), backlog)
			got, stop := parkedGetWait(t, fw.Consumer(1))
			if err := tc.depart(fw, 0); err != nil {
				t.Fatal(err)
			}
			if tk := expectWoken(t, got, stop); tk != backlog {
				t.Fatalf("survivor returned %v, want the departed consumer's backlog", tk)
			}
		})
	}
}

// TestKillWakesParkedVictim: a consumer killed while parked unwinds with
// ErrKilled instead of sleeping on.
func TestKillWakesParkedVictim(t *testing.T) {
	longFallback(t)
	fw := newFW(t, 1, 2, 8, nil)
	victim := fw.Consumer(1)
	errc := make(chan error, 1)
	go func() {
		_, err := victim.GetContext(context.Background())
		errc <- err
	}()
	waitParked(t, victim)
	if err := fw.KillConsumer(1); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, framework.ErrKilled) {
			t.Fatalf("GetContext = %v, want ErrKilled", err)
		}
	case <-time.After(wakeBound):
		t.Fatalf("killed waiter still parked %v later", wakeBound)
	}
}

// TestGetContextCancelWhileParked: cancellation reaches a parked waiter at
// once, not at the fallback timer.
func TestGetContextCancelWhileParked(t *testing.T) {
	longFallback(t)
	fw := newFW(t, 1, 1, 8, nil)
	c := fw.Consumer(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := c.GetContext(ctx)
		errc <- err
	}()
	waitParked(t, c)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("GetContext = %v, want context.Canceled", err)
		}
	case <-time.After(wakeBound):
		t.Fatalf("cancelled waiter still parked %v later", wakeBound)
	}
}

// TestWakeStressExactlyOnce runs producers with seeded random gaps against
// GetWait consumers and checks the history with the exactly-once
// validator. It runs in rounds: every consumer is parked when a round's
// puts begin, and the puts race the parks that follow each wake. The
// fallback timer is an hour, so a put that wakes nobody while every
// consumer is parked stalls the round's drain and fails the test.
func TestWakeStressExactlyOnce(t *testing.T) {
	longFallback(t)
	const (
		producers = 3
		consumers = 3
		burst     = 100
		seed      = 1
	)
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	fw := newSALSA(t, producers, consumers, 16)
	taskID := func(tk *task) uint64 { return uint64(tk.producer)<<32 | uint64(tk.seq) }
	waitFor := func(cond func() bool) bool {
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				return false
			}
		}
		return true
	}
	allParked := func() bool {
		for ci := 0; ci < consumers; ci++ {
			if !fw.Consumer(ci).Parked() {
				return false
			}
		}
		return true
	}

	logs := make([]*check.Log, producers+consumers)
	var got atomic.Int64
	stop := make(chan struct{})
	var cwg sync.WaitGroup
	for ci := 0; ci < consumers; ci++ {
		l := check.NewLog(rounds * burst)
		logs[producers+ci] = l
		cwg.Add(1)
		go func(ci int) {
			defer cwg.Done()
			c := fw.Consumer(ci)
			for {
				start := check.Now()
				tk, ok := c.GetWait(stop)
				if !ok {
					return // stopped; not an emptiness claim
				}
				l.Get(taskID(tk), start, check.Now())
				got.Add(1)
			}
		}(ci)
	}

	rngs := make([]*rand.Rand, producers)
	seqs := make([]int, producers)
	for pi := range rngs {
		rngs[pi] = rand.New(rand.NewSource(seed + int64(pi)))
		logs[pi] = check.NewLog(rounds * burst)
	}
	var put atomic.Int64
	for r := 0; r < rounds && !t.Failed(); r++ {
		if !waitFor(allParked) {
			t.Fatalf("round %d: consumers never all parked", r)
		}
		var pwg sync.WaitGroup
		for pi := 0; pi < producers; pi++ {
			pwg.Add(1)
			go func(pi int) {
				defer pwg.Done()
				rng, p, l := rngs[pi], fw.Producer(pi), logs[pi]
				for n := 1 + rng.Intn(burst); n > 0; n-- {
					if rng.Intn(4) == 0 {
						time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					}
					tk := &task{producer: pi, seq: seqs[pi]}
					seqs[pi]++
					start := check.Now()
					p.Put(tk)
					l.Put(taskID(tk), start, check.Now())
					put.Add(1)
				}
			}(pi)
		}
		pwg.Wait()
		// Read the count before any stop: a stop wakes every waiter,
		// and they would drain a stalled backlog on their way out.
		if !waitFor(func() bool { return got.Load() == put.Load() }) {
			t.Errorf("round %d: drain stalled at %d of %d tasks: a put woke no parked consumer",
				r, got.Load(), put.Load())
		}
	}
	close(stop)
	cwg.Wait()
	for _, v := range check.Verify(logs, check.Options{ExpectDrained: true}) {
		t.Error(v)
	}
}
