package framework

import (
	"sync/atomic"
	"time"

	"salsa/internal/backoff"
)

// This file implements the sleeper handshake behind the park phase of the
// blocking retrievals (GetWait/GetContext). The paper's get never blocks:
// it returns ⊥ on a linearizable empty (§1.5.5), and waiting is layered on
// top. After its spin and yield phases a waiter registers as a sleeper,
// re-checks the pools once, and blocks on its own wake channel; a producer
// that made tasks visible loads the family-wide sleeper count and, only if
// it is non-zero, claims a parked consumer per task and hands each a
// token. The pairing (DESIGN.md §7, "Parking and the sleeper handshake")
// is two store→load sequences, all seq-cst atomics:
//
//	producer: task slot store   → sleepers load → claim (CAS sleeping)
//	consumer: sleeping store    → sleepers RMW  → tryOnce loads
//
// In any total order of those operations either the consumer's re-check
// sees the task or the producer sees the registration, so a put is never
// missed by every parked consumer. A fallback timer bounds each park
// anyway, so the handshake buys latency only; correctness never rests on
// it.

// parkTimeout overrides the fallback timer when positive (a test hook; see
// export_test.go). Atomic because waiters of other tests may be running.
var parkTimeout atomic.Int64

func fallbackTimeout() time.Duration {
	if d := parkTimeout.Load(); d > 0 {
		return time.Duration(d)
	}
	return backoff.DefaultMaxSleep
}

// parker is a consumer's half of the handshake. Whoever lowers sleeping —
// a waker's CAS or the consumer itself on the way out — also decrements
// the family's sleeper count, so each registration is undone exactly once.
type parker struct {
	sleeping atomic.Bool
	wake     chan struct{} // 1-buffered: a token survives a claim that races the wake-up
	timer    *time.Timer   // the fallback, reused across parks (owner-only)
}

// register raises the sleeping flag, then the count. Flag first: a waker
// that sees the count must also find the flag to claim.
func (pk *parker) register(sleepers *atomic.Int32) {
	pk.sleeping.Store(true)
	sleepers.Add(1)
}

// sleep blocks until a token arrives, done closes or the fallback timer
// fires. A stale token from an earlier race makes it return early, which
// costs one more poll and nothing else.
func (pk *parker) sleep(done <-chan struct{}) {
	d := fallbackTimeout()
	if pk.timer == nil {
		pk.timer = time.NewTimer(d)
	} else {
		pk.timer.Reset(d)
	}
	select {
	case <-pk.wake:
	case <-done:
	case <-pk.timer.C:
	}
}

// unregister undoes register unless a waker already did.
func (pk *parker) unregister(sleepers *atomic.Int32) {
	if pk.sleeping.Load() && pk.sleeping.CompareAndSwap(true, false) {
		sleepers.Add(-1)
	}
}

// claim wakes the consumer if it is parked and no other waker got there
// first, reporting whether it did.
func (pk *parker) claim(sleepers *atomic.Int32) bool {
	if !pk.sleeping.Load() || !pk.sleeping.CompareAndSwap(true, false) {
		return false
	}
	sleepers.Add(-1)
	select {
	case pk.wake <- struct{}{}:
	default: // a token is already pending
	}
	return true
}

// wakeParked is the producer's half, called after n tasks became visible:
// it claims up to n parked consumers, nearest first along the producer's
// access list. Callers check the sleeper count first, so a put with nobody
// parked never gets here.
func (p *Producer[T]) wakeParked(n int) {
	fw := p.fw
	for _, c := range fw.epoch.Load().prodWake[p.state.ID] {
		if n == 0 {
			return
		}
		if c.claim(&fw.sleepers) {
			n--
		}
	}
}

// wakeAll claims every parked consumer, departed ones included (a killed
// waiter must see its flag). Membership changes call it after publishing
// an epoch: survivors must look again at an abandoned pool's backlog.
// Caller holds fw.mu.
func (fw *Framework[T]) wakeAll() {
	if fw.sleepers.Load() == 0 {
		return
	}
	for _, c := range fw.consumers {
		c.claim(&fw.sleepers)
	}
}

// park is the last phase of a blocking retrieval: register as a sleeper,
// poll once more, and block until woken. It returns a task when that poll
// found one.
func (c *Consumer[T]) park(done <-chan struct{}) (*T, bool) {
	sleepers := &c.fw.sleepers
	c.register(sleepers)
	// The re-check after registering closes the handshake; the killed
	// check closes the same race against KillConsumer's wakeAll.
	if t, ok := c.tryOnce(); ok || c.killed.Load() {
		c.unregister(sleepers)
		return t, ok
	}
	c.sleep(done)
	c.unregister(sleepers)
	return nil, false
}
