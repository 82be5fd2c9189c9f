package fl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"fuiov/internal/faults"
	"fuiov/internal/history"
	"fuiov/internal/nn"
)

// Sentinel errors of the fault-tolerant execution layer. Wrapped
// errors from RunRoundContext match them under errors.Is.
var (
	// ErrClientCrash marks an attempt lost to a client crash (no
	// response).
	ErrClientCrash = errors.New("fl: client crashed")
	// ErrClientTimeout marks an attempt cut off by the per-client
	// deadline (a straggler).
	ErrClientTimeout = errors.New("fl: client deadline exceeded")
	// ErrCorruptUpload marks an upload rejected by validation.
	ErrCorruptUpload = errors.New("fl: corrupt upload")
	// ErrQuorumNotReached marks a round abandoned because fewer than
	// the quorum fraction of scheduled clients responded.
	ErrQuorumNotReached = errors.New("fl: quorum not reached")
	// ErrUnknownClient marks a lookup of a client the simulation does
	// not know.
	ErrUnknownClient = errors.New("fl: unknown client")
)

// FaultPolicy controls how the round engine copes with unreliable
// clients. A nil policy is strict: any client failure (including
// injected faults) aborts the round. With a policy attached the engine
// retries failed attempts at once, cuts off stragglers at the per-client
// deadline, drops unrecoverable clients from the round and aggregates
// as long as the quorum holds — absentees are simply recorded as
// non-participants, keeping later unlearning consistent.
type FaultPolicy struct {
	// ClientTimeout is the per-attempt deadline. An attempt whose
	// injected latency reaches the deadline fails with
	// ErrClientTimeout. The comparison is made in simulated time — the
	// engine never sleeps for injected latency — so runs stay fast and
	// bit-deterministic. 0 disables the deadline.
	ClientTimeout time.Duration
	// MaxRetries is the number of extra attempts after the first
	// (0 = no retry). A retry follows the failed attempt at once.
	MaxRetries int
	// Quorum is the minimum fraction of the round's scheduled clients
	// that must respond for the round to commit, in [0, 1]. Below it
	// the round fails with ErrQuorumNotReached and the clock does not
	// advance. 0 commits the round regardless of how many respond.
	Quorum float64
}

// Validate checks the policy's ranges. A nil policy is valid.
func (p *FaultPolicy) Validate() error {
	if p == nil {
		return nil
	}
	if p.ClientTimeout < 0 {
		return fmt.Errorf("fl: negative client timeout %v", p.ClientTimeout)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("fl: negative max retries %d", p.MaxRetries)
	}
	if !(p.Quorum >= 0 && p.Quorum <= 1) {
		return fmt.Errorf("fl: quorum %v outside [0,1]", p.Quorum)
	}
	return nil
}

// QuorumCount returns the minimum number of responders required out of
// scheduled clients for a round to commit under this policy. It is 0 —
// any turnout commits — on a nil policy, a zero Quorum fraction, or an
// empty schedule. The round engine applies it to simulated rounds and
// the networked coordinator to wall-clock collection windows, so both
// enforce the same turnout rule.
func (p *FaultPolicy) QuorumCount(scheduled int) int {
	if p == nil || p.Quorum <= 0 || scheduled == 0 {
		return 0
	}
	k := int(math.Ceil(p.Quorum * float64(scheduled)))
	if k > scheduled {
		k = scheduled
	}
	return k
}

// CallClient runs one client gradient computation under a fault
// injector and policy — the exact adjudication RunRoundContext uses
// (crash and latency faults, deadline cutoff, bounded retry, upload
// validation) — so other client-dependent paths, such as
// FedRecover's periodic exact corrections, share the round engine's
// semantics. It returns the gradient and the number of retries spent.
func CallClient(ctx context.Context, inj faults.Injector, policy *FaultPolicy,
	seed uint64, c *Client, template *nn.Network, params []float64, round int) ([]float64, int, error) {
	if c == nil {
		return nil, 0, ErrUnknownClient
	}
	res := callWithFaults(ctx, inj, policy, seed, c.ID, round, func() ([]float64, error) {
		return c.ComputeGradient(template, params, seed, round)
	})
	return res.grad, res.retries, res.err
}

// callResult is the outcome of one fault-adjudicated client call.
type callResult struct {
	grad     []float64
	retries  int
	crashes  int
	timeouts int
	corrupt  int
	// err is the terminal error after exhausting all attempts (nil on
	// success).
	err error
}

// callWithFaults runs one client computation under the configured
// fault injector and policy: each attempt first consults the injector,
// adjudicates injected crash/latency/corruption against the policy,
// and retries at once until an attempt succeeds, the attempt budget is
// spent or ctx is done (checked before every attempt). With a nil
// policy there is exactly one attempt and any injected fault is a
// terminal error (strict mode); corruption is then NOT rejected — it
// flows into the upload, the unprotected baseline.
func callWithFaults(ctx context.Context, inj faults.Injector, policy *FaultPolicy,
	seed uint64, id history.ClientID, round int, compute func() ([]float64, error)) callResult {

	var res callResult
	attempts := 1
	if policy != nil {
		attempts = policy.MaxRetries + 1
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			res.err = err
			return res
		}
		if a > 0 {
			res.retries++
		}
		var out faults.Outcome
		if inj != nil {
			out = inj.Outcome(id, round, a)
		}
		if out.Crash {
			res.crashes++
			lastErr = fmt.Errorf("%w: client %d round %d attempt %d", ErrClientCrash, id, round, a)
			continue
		}
		if policy != nil && policy.ClientTimeout > 0 && out.Delay >= policy.ClientTimeout {
			res.timeouts++
			lastErr = fmt.Errorf("%w: client %d round %d attempt %d (latency %v, deadline %v)",
				ErrClientTimeout, id, round, a, out.Delay, policy.ClientTimeout)
			continue
		}
		g, err := compute()
		if err != nil {
			lastErr = err
			continue
		}
		if out.Corrupt {
			faults.CorruptInPlace(g, seed, id, round, a)
			if policy != nil {
				res.corrupt++
				lastErr = fmt.Errorf("%w: client %d round %d attempt %d", ErrCorruptUpload, id, round, a)
				continue
			}
		}
		res.grad = g
		return res
	}
	res.err = lastErr
	return res
}
