package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAccessorsAndPolicies(t *testing.T) {
	if AllocCentral(3, 5) != 0 {
		t.Error("AllocCentral must always return node 0")
	}
	if AllocLocal(3, 5) != 5 {
		t.Error("AllocLocal must return the owner node")
	}
	s := newFamily(t, 8, 2)
	if s.Options().ChunkSize != 8 {
		t.Errorf("Options().ChunkSize = %d", s.Options().ChunkSize)
	}
	p, err := s.NewPool(1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.OwnerID() != 1 {
		t.Errorf("OwnerID = %d", p.OwnerID())
	}
	if p.OwnerNode() != 3 {
		t.Errorf("OwnerNode = %d", p.OwnerNode())
	}
}

func TestOnAccessHookFires(t *testing.T) {
	var calls atomic.Int64
	s, err := NewShared[task](Options{
		ChunkSize: 4,
		Consumers: 1,
		OnAccess:  func(from, home int) { calls.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := s.NewPool(0, 0, 1)
	ps, cs := prod(0), cons(0)
	p.ProduceForce(ps, &task{id: 1})
	if p.Consume(cs) == nil {
		t.Fatal("consume failed")
	}
	// One call for the put, one for the take.
	if calls.Load() != 2 {
		t.Errorf("OnAccess fired %d times, want 2", calls.Load())
	}
}

func TestCentralAllocationHomes(t *testing.T) {
	s, err := NewShared[task](Options{ChunkSize: 4, Consumers: 1, Alloc: AllocCentral})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := s.NewPool(0, 3, 1) // owner on node 3
	ps := prod(0)
	ps.Node = 2
	p.ProduceForce(ps, &task{id: 1})
	ch := p.lists[0].first().node.Load().chunk.Load()
	if ch.Home() != 0 {
		t.Errorf("central-alloc chunk homed on node %d, want 0", ch.Home())
	}
	// Producer (node 2) and consumer both remote to home 0.
	if ps.Ops.RemoteTransfers.Load() != 1 {
		t.Errorf("RemoteTransfers = %d, want 1", ps.Ops.RemoteTransfers.Load())
	}
}

func TestInitialChunksSeeded(t *testing.T) {
	s, err := NewShared[task](Options{ChunkSize: 4, Consumers: 1, InitialChunks: 3})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := s.NewPool(0, 0, 1)
	if p.SpareChunks() != 3 {
		t.Fatalf("SpareChunks = %d, want 3", p.SpareChunks())
	}
	// produce() must succeed immediately (no force) thanks to the seed.
	if !p.Produce(prod(0), &task{id: 1}) {
		t.Fatal("Produce failed despite seeded spares")
	}
}

// TestHuntAnnouncedSlotRace runs the victim-consume vs thief-steal race
// until the ex-owner actually lands on its CAS slow path (Algorithm 5 line
// 95) at least once, validating the live code path rather than a
// simulation. Best-effort: on hosts where the window never opens the test
// reports coverage as skipped rather than failing. The hunt runs at least
// 3000 attempts and up to a time budget: on a 2-vCPU VM the window opens
// about once in 40 000 attempts, so a fixed 3000 nearly always skipped.
func TestHuntAnnouncedSlotRace(t *testing.T) {
	const (
		attempts = 3000
		budget   = 5 * time.Second
	)
	var slowHits int64
	begin := time.Now()
	for a := 0; slowHits == 0 && (a < attempts || time.Since(begin) < budget); a++ {
		s, _ := NewShared[task](Options{ChunkSize: 4, Consumers: 2})
		victim, _ := s.NewPool(0, 0, 1)
		thief, _ := s.NewPool(1, 0, 1)
		ps := prod(0)
		for i := 0; i < 4; i++ {
			victim.ProduceForce(ps, &task{id: i})
		}
		csV, csT := cons(0), cons(1)
		var wg sync.WaitGroup
		var taken [5]atomic.Int32
		wg.Add(2)
		go func() {
			defer wg.Done()
			for {
				tk := victim.Consume(csV)
				if tk == nil {
					return
				}
				taken[tk.id].Add(1)
				runtime.Gosched()
			}
		}()
		go func() {
			defer wg.Done()
			for {
				tk := thief.Steal(csT, victim)
				if tk == nil {
					tk = thief.Consume(csT)
				}
				if tk == nil {
					return
				}
				taken[tk.id].Add(1)
			}
		}()
		wg.Wait()
		for id := range taken {
			if taken[id].Load() > 1 {
				t.Fatalf("attempt %d: task %d taken %d times", a, id, taken[id].Load())
			}
		}
		slowHits += csV.Ops.SlowPath.Load()
	}
	if slowHits == 0 {
		t.Skip("the steal window never opened on this host; uniqueness still verified")
	}
	t.Logf("ex-owner slow path exercised %d time(s)", slowHits)
}
