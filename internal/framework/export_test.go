package framework

import "time"

// SetParkTimeout overrides the park's fallback timer (0 restores the
// default), so a test can tell a signalled wake from a timer expiry.
func SetParkTimeout(d time.Duration) { parkTimeout.Store(int64(d)) }

// Parked reports whether c is registered as a sleeper.
func (c *Consumer[T]) Parked() bool { return c.sleeping.Load() }
