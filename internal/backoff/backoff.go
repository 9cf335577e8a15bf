// Package backoff provides the bounded spin→yield→sleep escalation used by
// the pool's retry loops.
//
// A raw `for { try() }` loop — even one that sprinkles runtime.Gosched() —
// is a livelock risk: under GOMAXPROCS=1 a spinner that never sleeps can
// monopolize the only P in lockstep with the scheduler while the goroutine
// it waits on (a stalled producer, a consumer holding the last chunk) never
// runs long enough to make progress, and on a loaded machine it burns a
// core to poll a condition that changes at millisecond scale. The paper's
// algorithms are lock-free, so any single retry is cheap; the policy
// question is purely how long to stay hot. Loops that must not sleep at
// all — retries inside a nominally non-blocking operation — cap the
// escalation at the yield phase with YieldOnly.
//
// The escalation is the classic three-phase design. The first Spins
// attempts return immediately (the condition usually flips within
// nanoseconds under load). The next Yields attempts surrender the P with
// runtime.Gosched(), letting same-P goroutines run — this alone fixes the
// GOMAXPROCS=1 livelock. After that the waiter parks in timed sleeps that
// double from MinSleep to MaxSleep, capping wake-up latency at MaxSleep
// while reducing a long-idle consumer's cost to ~1/MaxSleep wakeups per
// second. Parks are reported so callers can feed a telemetry counter
// (salsa_backoff_parks_total): a high park rate is the "consumers outrun
// producers" pressure signal.
//
// Which loops reach the timed sleeps: the producer-side saturation waits
// (executor SubmitContext, the admission layer's AdmitQueue policy) and
// the workload and loadgen harnesses. The framework's blocking retrievals
// (GetWait/GetContext, and so the executor's workers) spin and yield here
// but park on a producer's wake signal instead: they stop at Parking and
// block on their own channel, keeping DefaultMaxSleep only as a fallback
// timer. Get/GetBatch are YieldOnly and never park.
package backoff

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Defaults, chosen so that a waiter stays latency-optimal for ~a µs of
// spinning, scheduler-friendly for a handful of yields, and cheap forever
// after (1 ms max sleep keeps worst-case wakeup well under any human or
// network deadline while bounding idle CPU at ~1k wakeups/s/consumer).
const (
	DefaultSpins    = 64
	DefaultYields   = 16
	DefaultMinSleep = 20 * time.Microsecond
	DefaultMaxSleep = time.Millisecond
)

// Backoff escalates a single waiter's retry pacing. The zero value uses the
// defaults; a Backoff must not be shared between goroutines.
type Backoff struct {
	// Spins is the number of leading attempts that return immediately.
	Spins int
	// Yields is the number of attempts after Spins that runtime.Gosched.
	Yields int
	// MinSleep/MaxSleep bound the timed-sleep phase; the sleep doubles
	// from MinSleep until it saturates at MaxSleep.
	MinSleep time.Duration
	MaxSleep time.Duration

	// YieldOnly caps the escalation at the yield phase: attempts past
	// Spins+Yields keep yielding instead of parking in timed sleeps, so
	// Pause never reports a park. This is for callers whose contract is
	// non-blocking-but-bounded — framework Get/GetBatch retry only while
	// checkEmpty refutes emptiness, and a millisecond sleep there would
	// turn a linearizable-emptiness probe into a latency spike — while
	// the yields still fix the GOMAXPROCS=1 livelock. Explicitly
	// blocking waits leave it false and park (see the package doc).
	YieldOnly bool

	attempts int
	sleep    time.Duration
	parks    int64
}

func (b *Backoff) defaults() {
	if b.Spins == 0 {
		if v := overrideSpins.Load(); v > 0 {
			b.Spins = int(v)
		} else {
			b.Spins = DefaultSpins
		}
	}
	if b.Yields == 0 {
		if v := overrideYields.Load(); v > 0 {
			b.Yields = int(v)
		} else {
			b.Yields = DefaultYields
		}
	}
	if b.MinSleep == 0 {
		b.MinSleep = DefaultMinSleep
	}
	if b.MaxSleep == 0 {
		b.MaxSleep = DefaultMaxSleep
	}
}

// PauseInfo describes one Pause decision to the registered observer.
type PauseInfo struct {
	// Attempt is the 1-based attempt count since the last Reset.
	Attempt int
	// WouldSleep reports that the attempt is past the spin and yield
	// phases — the point where a default backoff parks in a timed sleep.
	// A YieldOnly backoff caps the escalation here instead of sleeping.
	WouldSleep bool
	// YieldOnly mirrors the Backoff's cap.
	YieldOnly bool
}

// PauseObserver intercepts Pause: while one is registered, Pause performs no
// spinning, yielding, or sleeping of its own — the observer is expected to
// surrender control instead (the schedule controller parks the goroutine and
// wakes it deterministically). Park accounting (Parks, the return value of
// Pause) is unchanged, so callers' telemetry still sees would-be sleeps.
type PauseObserver func(PauseInfo)

var (
	pauseObs atomic.Pointer[PauseObserver]

	// overrideSpins/overrideYields replace the zero-value defaults when
	// positive; see SetTestDefaults. Consulted only on a Backoff's first
	// Pause (defaults fill once), so the steady-state cost is zero.
	overrideSpins  atomic.Int32
	overrideYields atomic.Int32
)

// SetPauseObserver registers f as the process-wide Pause interceptor; nil
// unregisters. Control-plane only: the schedule controller brackets its runs
// with it, and nothing else should touch it.
func SetPauseObserver(f PauseObserver) {
	if f == nil {
		pauseObs.Store(nil)
		return
	}
	pauseObs.Store(&f)
}

// SetTestDefaults overrides the zero-value Spins/Yields defaults process-wide
// (non-positive restores the normal defaults). The schedule explorer shrinks
// the phases so a retry loop reaches the escalation boundaries within a
// handful of scheduled steps instead of eighty; production code never calls
// this.
func SetTestDefaults(spins, yields int) {
	overrideSpins.Store(int32(spins))
	overrideYields.Store(int32(yields))
}

// Pause blocks the caller according to the escalation phase and reports
// whether it parked (slept) — the signal callers count into telemetry.
func (b *Backoff) Pause() (parked bool) {
	b.defaults()
	b.attempts++
	if o := pauseObs.Load(); o != nil {
		wouldSleep := b.attempts > b.Spins+b.Yields
		(*o)(PauseInfo{Attempt: b.attempts, WouldSleep: wouldSleep, YieldOnly: b.YieldOnly})
		if wouldSleep && !b.YieldOnly {
			b.parks++
			return true
		}
		return false
	}
	switch {
	case b.attempts <= b.Spins:
		return false
	case b.attempts <= b.Spins+b.Yields:
		runtime.Gosched()
		return false
	case b.YieldOnly:
		runtime.Gosched()
		return false
	default:
		if b.sleep == 0 {
			b.sleep = b.MinSleep
		}
		time.Sleep(b.sleep)
		if b.sleep < b.MaxSleep {
			b.sleep *= 2
			if b.sleep > b.MaxSleep {
				b.sleep = b.MaxSleep
			}
		}
		b.parks++
		return true
	}
}

// Parking reports whether the next Pause would park in a timed sleep that no
// PauseObserver intercepts. A waiter with a wake signal of its own
// (framework GetWait/GetContext) checks it before each Pause and, once it
// holds, blocks on that signal instead of a timed sleep. While an observer
// is registered it stays false, so every pause still goes through the
// observer. It advances no state.
func (b *Backoff) Parking() bool {
	b.defaults()
	return !b.YieldOnly && b.attempts >= b.Spins+b.Yields && pauseObs.Load() == nil
}

// Reset returns the backoff to the spin phase. Call after the awaited
// condition fires so the next wait starts hot again.
func (b *Backoff) Reset() {
	b.attempts = 0
	b.sleep = 0
}

// Parks returns the total number of timed sleeps since creation (Reset does
// not clear it).
func (b *Backoff) Parks() int64 { return b.parks }
