package backoff

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestEscalationPhases(t *testing.T) {
	b := &Backoff{Spins: 4, Yields: 2, MinSleep: time.Microsecond, MaxSleep: 4 * time.Microsecond}
	for i := 0; i < 4; i++ {
		if b.Pause() {
			t.Fatalf("attempt %d parked during spin phase", i)
		}
	}
	for i := 0; i < 2; i++ {
		if b.Pause() {
			t.Fatalf("yield-phase attempt %d parked", i)
		}
	}
	for i := 0; i < 3; i++ {
		if !b.Pause() {
			t.Fatalf("sleep-phase attempt %d did not park", i)
		}
	}
	if got := b.Parks(); got != 3 {
		t.Fatalf("Parks = %d, want 3", got)
	}
}

func TestSleepDoublesAndSaturates(t *testing.T) {
	b := &Backoff{Spins: 1, Yields: 1, MinSleep: time.Microsecond, MaxSleep: 8 * time.Microsecond}
	for i := 0; i < 10; i++ {
		b.Pause()
	}
	if b.sleep != 8*time.Microsecond {
		t.Fatalf("sleep did not saturate at MaxSleep: %v", b.sleep)
	}
}

// TestYieldOnlyNeverParks: with YieldOnly the escalation caps at the yield
// phase — no attempt ever sleeps, so no park is reported and a nominally
// non-blocking caller (framework Get/GetBatch) keeps its latency bound.
func TestYieldOnlyNeverParks(t *testing.T) {
	b := &Backoff{Spins: 2, Yields: 2, MinSleep: time.Microsecond, MaxSleep: time.Microsecond, YieldOnly: true}
	for i := 0; i < 50; i++ {
		if b.Pause() {
			t.Fatalf("YieldOnly attempt %d parked", i)
		}
	}
	if got := b.Parks(); got != 0 {
		t.Fatalf("Parks = %d, want 0 under YieldOnly", got)
	}
}

// TestYieldOnlySingleProcProgress: the yield cap must preserve the
// GOMAXPROCS=1 livelock fix — past-phase attempts still Gosched.
func TestYieldOnlySingleProcProgress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ready atomic.Bool
	go func() {
		ready.Store(true)
	}()
	b := &Backoff{YieldOnly: true}
	deadline := time.Now().Add(5 * time.Second)
	for !ready.Load() {
		if time.Now().After(deadline) {
			t.Fatal("YieldOnly waiter starved the signaling goroutine on GOMAXPROCS=1")
		}
		b.Pause()
	}
}

func TestResetRestartsSpinPhase(t *testing.T) {
	b := &Backoff{Spins: 2, Yields: 1, MinSleep: time.Microsecond, MaxSleep: time.Microsecond}
	for i := 0; i < 10; i++ {
		b.Pause()
	}
	if b.Parks() == 0 {
		t.Fatal("expected parks before Reset")
	}
	parks := b.Parks()
	b.Reset()
	if b.Pause() {
		t.Fatal("first attempt after Reset parked")
	}
	if b.Parks() != parks {
		t.Fatal("Reset cleared the parks census")
	}
}

func TestZeroValueUsesDefaults(t *testing.T) {
	var b Backoff
	if b.Pause() {
		t.Fatal("zero-value Backoff parked on first attempt")
	}
	if b.Spins != DefaultSpins || b.Yields != DefaultYields ||
		b.MinSleep != DefaultMinSleep || b.MaxSleep != DefaultMaxSleep {
		t.Fatalf("defaults not applied: %+v", b)
	}
}

// TestSingleProcProgress is the livelock regression: a waiter pausing with
// Backoff on a single P must let the goroutine it waits on run.
func TestSingleProcProgress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ready atomic.Bool
	go func() {
		ready.Store(true)
	}()
	b := &Backoff{}
	deadline := time.Now().Add(5 * time.Second)
	for !ready.Load() {
		if time.Now().After(deadline) {
			t.Fatal("waiter starved the signaling goroutine on GOMAXPROCS=1")
		}
		b.Pause()
	}
}

// TestParkingMarksTheSleepPhase: Parking turns true exactly where Pause
// would start sleeping, never under YieldOnly, and stays false while an
// observer intercepts pauses.
func TestParkingMarksTheSleepPhase(t *testing.T) {
	b := &Backoff{Spins: 2, Yields: 1}
	for i := 0; i < 3; i++ {
		if b.Parking() {
			t.Fatalf("Parking before spin/yield attempt %d", i+1)
		}
		b.Pause()
	}
	if !b.Parking() {
		t.Fatal("Parking false once the next Pause would sleep")
	}
	y := &Backoff{Spins: 1, Yields: 1, YieldOnly: true}
	for i := 0; i < 5; i++ {
		y.Pause()
	}
	if y.Parking() {
		t.Fatal("Parking true under YieldOnly")
	}
	SetPauseObserver(func(PauseInfo) {})
	defer SetPauseObserver(nil)
	if b.Parking() {
		t.Fatal("Parking true with a PauseObserver registered")
	}
}
