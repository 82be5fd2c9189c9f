package fl

import (
	"time"
)

// WallClock adapts a FaultPolicy to a networked coordinator, where
// deadlines, retry backoff and round windows run against real elapsed
// time instead of the simulated clock used by the in-process engine.
//
// The in-process Simulation compares injected latencies against
// FaultPolicy.ClientTimeout without ever sleeping, so simulated runs
// stay fast and bit-deterministic. A server accepting uploads over a
// real network has no injected latencies to compare — stragglers are
// simply clients whose bytes have not arrived yet. WallClock gives the
// serving layer the same policy semantics (deadline, quorum fraction,
// bounded retry with exponential backoff) measured with a real clock,
// so one FaultPolicy value describes both worlds.
//
// The zero WallClock and a WallClock over a nil policy are both valid:
// every deadline is "never" and there are no retries.
type WallClock struct {
	policy *FaultPolicy
	now    func() time.Time
}

// WallClock returns an adapter measuring the policy's deadlines with
// now (time.Now when nil). It is valid on a nil policy: the resulting
// adapter imposes no deadline and no retries.
func (p *FaultPolicy) WallClock(now func() time.Time) WallClock {
	if now == nil {
		now = time.Now
	}
	return WallClock{policy: p, now: now}
}

// Policy returns the adapted policy (nil for the no-op adapter).
func (w WallClock) Policy() *FaultPolicy { return w.policy }

// Now returns the adapter's current wall-clock reading.
func (w WallClock) Now() time.Time {
	if w.now == nil {
		return time.Now()
	}
	return w.now()
}

// Deadline returns the instant at which a collection window opened at
// openedAt expires, and whether a deadline applies at all. Without a
// policy, or with ClientTimeout 0, there is no deadline.
func (w WallClock) Deadline(openedAt time.Time) (time.Time, bool) {
	if w.policy == nil || w.policy.ClientTimeout <= 0 {
		return time.Time{}, false
	}
	return openedAt.Add(w.policy.ClientTimeout), true
}

// Retries returns the policy's extra-attempt budget (0 without one).
func (w WallClock) Retries() int {
	if w.policy == nil {
		return 0
	}
	return w.policy.MaxRetries
}

// RetryDelay returns the wall-clock wait before retry number retry
// (1 is the first retry), following the policy's exponential backoff
// with its cap. Without a policy, or before the first retry, it is 0.
func (w WallClock) RetryDelay(retry int) time.Duration {
	return w.policy.backoff(retry)
}
