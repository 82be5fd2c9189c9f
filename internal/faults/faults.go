package faults

import (
	"math"
	"time"

	"fuiov/internal/history"
	"fuiov/internal/rng"
)

// Outcome describes what happened to one client attempt.
type Outcome struct {
	// Crash means the client never responds this attempt.
	Crash bool
	// Delay is the simulated latency before the client's response
	// arrives. The round engine compares it against the fault policy's
	// per-client deadline; it never sleeps for it.
	Delay time.Duration
	// Corrupt means the client's upload is corrupted in flight (see
	// CorruptInPlace).
	Corrupt bool
}

// Injector decides the fault outcome of each client attempt. attempt
// is 0 for the first try and increments on every retry, so an
// implementation can model transient faults that clear on retry.
// Implementations must be safe for concurrent use and deterministic in
// their inputs: the round engine relies on that for bit-reproducible
// runs at any parallelism.
type Injector interface {
	Outcome(id history.ClientID, round, attempt int) Outcome
}

// Func adapts a function to the Injector interface.
type Func func(id history.ClientID, round, attempt int) Outcome

var _ Injector = Func(nil)

// Outcome implements Injector.
func (f Func) Outcome(id history.ClientID, round, attempt int) Outcome {
	return f(id, round, attempt)
}

// Spec describes one client's fault behaviour. The zero Spec is a
// perfectly reliable client.
type Spec struct {
	// CrashProb is the per-attempt probability of a crash (no
	// response). Drawn independently per attempt, so retries can
	// succeed.
	CrashProb float64
	// FlakyEvery, when k > 0, crashes the client deterministically on
	// every k-th round (rounds k−1, 2k−1, …), every attempt — a
	// client with a periodic hard outage that retries cannot mask.
	FlakyEvery int
	// CrashAt lists rounds where the client crashes deterministically,
	// every attempt — a hard outage pinned to specific rounds. The
	// scenario harness (internal/simtest) uses it to express and shrink
	// minimal reproducers ("client 3 crashes at round 7") that
	// probabilistic faults cannot.
	CrashAt []int
	// CorruptAt lists rounds where the client's first attempt uploads
	// a corrupted gradient; retries at those rounds are clean — a
	// transient radio fault that a single retry recovers.
	CorruptAt []int
	// DelayMin and DelayMax bound the per-attempt simulated latency,
	// drawn uniformly. Equal values give a fixed delay.
	DelayMin, DelayMax time.Duration
	// CorruptProb is the per-attempt probability the upload is
	// corrupted in flight.
	CorruptProb float64
}

// roundIn reports whether round is listed in rounds.
func roundIn(rounds []int, round int) bool {
	for _, r := range rounds {
		if r == round {
			return true
		}
	}
	return false
}

// Plan is a seeded, declarative fault plan: a default Spec for every
// client plus per-client overrides. Outcomes are pure functions of
// (seed, client, round, attempt), so a plan replays identically across
// runs and parallelism settings. Plan is safe for concurrent use after
// construction; configure it before handing it to a simulation.
type Plan struct {
	seed      uint64
	def       Spec
	perClient map[history.ClientID]Spec
}

var _ Injector = (*Plan)(nil)

// NewPlan creates a fault plan applying spec to every client.
func NewPlan(seed uint64, spec Spec) *Plan {
	return &Plan{seed: seed, def: spec}
}

// SetClient overrides the fault spec of a single client.
func (p *Plan) SetClient(id history.ClientID, spec Spec) *Plan {
	if p.perClient == nil {
		p.perClient = make(map[history.ClientID]Spec)
	}
	p.perClient[id] = spec
	return p
}

// SpecFor returns the effective spec for a client.
func (p *Plan) SpecFor(id history.ClientID) Spec {
	if s, ok := p.perClient[id]; ok {
		return s
	}
	return p.def
}

// Outcome implements Injector.
func (p *Plan) Outcome(id history.ClientID, round, attempt int) Outcome {
	spec := p.SpecFor(id)
	var out Outcome
	if spec.FlakyEvery > 0 && (round+1)%spec.FlakyEvery == 0 {
		out.Crash = true
		return out
	}
	if roundIn(spec.CrashAt, round) {
		out.Crash = true
		return out
	}
	if attempt == 0 && roundIn(spec.CorruptAt, round) {
		out.Corrupt = true
	}
	if spec.CrashProb <= 0 && spec.CorruptProb <= 0 &&
		spec.DelayMin <= 0 && spec.DelayMax <= 0 {
		return out
	}
	r := rng.New(rng.Mix(p.seed, 0xfa017, uint64(id)+1, uint64(round)+1, uint64(attempt)+1))
	if spec.CrashProb > 0 && r.Bernoulli(spec.CrashProb) {
		out.Crash = true
		return out
	}
	if spec.DelayMax > spec.DelayMin {
		out.Delay = spec.DelayMin +
			time.Duration(r.Uniform(0, float64(spec.DelayMax-spec.DelayMin)))
	} else if spec.DelayMin > 0 {
		out.Delay = spec.DelayMin
	}
	if spec.CorruptProb > 0 && r.Bernoulli(spec.CorruptProb) {
		out.Corrupt = true
	}
	return out
}

// CorruptInPlace deterministically corrupts an upload the way a
// truncated or bit-flipped radio frame would: a seeded subset of
// elements is overwritten with NaN and sign-flipped garbage. The
// corruption is a pure function of (seed, client, round, attempt) so
// faulty runs replay bit-identically.
func CorruptInPlace(g []float64, seed uint64, id history.ClientID, round, attempt int) {
	if len(g) == 0 {
		return
	}
	r := rng.New(rng.Mix(seed, 0xc0de, uint64(id)+1, uint64(round)+1, uint64(attempt)+1))
	// Corrupt ~1/8 of the elements, at least one.
	n := len(g) / 8
	if n < 1 {
		n = 1
	}
	for k := 0; k < n; k++ {
		i := r.IntN(len(g))
		if r.Bernoulli(0.5) {
			g[i] = math.NaN()
		} else {
			g[i] = -1e30 * (g[i] + 1)
		}
	}
}
