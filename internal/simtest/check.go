package simtest

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"fuiov/internal/telemetry"
)

// Invariant names. A Failure's Invariant is its identity during
// shrinking: a candidate reproduces the failure iff it fails the same
// named invariant (messages may differ as the schedule shrinks).
const (
	InvEngine      = "engine"         // the round engine or unlearner returned an unexpected error
	InvBacktrack   = "backtrack-wf"   // unlearned model ≠ the stored w_F, or F ≠ min join round
	InvParallelism = "parallelism"    // results differ between Parallelism=1 and the base run
	InvSpill       = "spill"          // results differ with the spill tier toggled
	InvSaveLoad    = "saveload"       // a mid-run Save/Load resume diverged from the straight run
	InvOverlap     = "overlap-commit" // an unlearn pass overlapped with training diverged from stop-the-world
	InvStorage     = "storage"        // Storage() accounting inconsistent
	InvSynthetic   = "synthetic"      // a violation planted by the harness's own tests
)

// Failure is one invariant violation.
type Failure struct {
	// Invariant is the violated invariant's name (shrink identity).
	Invariant string
	// Message describes the concrete violation.
	Message string
}

// Error formats the failure as "invariant: message".
func (f *Failure) Error() string { return f.Invariant + ": " + f.Message }

func failf(inv, format string, args ...any) *Failure {
	return &Failure{Invariant: inv, Message: fmt.Sprintf(format, args...)}
}

// Options configures a Checker.
type Options struct {
	// Telemetry, when non-nil, receives the per-scenario counters
	// (telemetry.Sim* names). Nil disables instrumentation.
	Telemetry *telemetry.Registry
	// Synthetic, when non-nil, is consulted before execution and turns
	// a non-nil error into an InvSynthetic failure. The harness's own
	// tests use it to plant deterministic violations and assert that
	// shrinking and replay reproduce them identically.
	Synthetic func(Scenario) error
}

// Checker executes scenarios and verifies the paper-level invariants.
type Checker struct {
	opts Options
	met  checkerMetrics
}

type checkerMetrics struct {
	scenarios   *telemetry.Counter
	rounds      *telemetry.Counter
	unlearns    *telemetry.Counter
	skips       *telemetry.Counter
	saveloads   *telemetry.Counter
	failures    *telemetry.Counter
	shrinkSteps *telemetry.Counter
	shrinkRuns  *telemetry.Counter
	scenario    *telemetry.Timer
}

// newChecker creates a Checker.
func newChecker(opts Options) *Checker {
	r := opts.Telemetry
	return &Checker{opts: opts, met: checkerMetrics{
		scenarios:   r.Counter(telemetry.SimScenarios),
		rounds:      r.Counter(telemetry.SimScenarioRounds),
		unlearns:    r.Counter(telemetry.SimScenarioUnlearns),
		skips:       r.Counter(telemetry.SimScenarioSkips),
		saveloads:   r.Counter(telemetry.SimScenarioSaveLoads),
		failures:    r.Counter(telemetry.SimInvariantFailures),
		shrinkSteps: r.Counter(telemetry.SimShrinkSteps),
		shrinkRuns:  r.Counter(telemetry.SimShrinkRuns),
		scenario:    r.Timer(telemetry.SimScenarioTime),
	}}
}

// check runs the scenario's base execution plus the three determinism
// variants and verifies every invariant. It returns nil when all hold.
// check is a pure function of the scenario: the same schedule always
// yields the same verdict and, on failure, the same invariant name.
func (c *Checker) check(sc Scenario) *Failure {
	span := c.met.scenario.Start()
	defer span.End()
	f := c.verify(sc)
	c.met.scenarios.Inc()
	if f != nil {
		c.met.failures.Inc()
	}
	return f
}

func (c *Checker) verify(sc Scenario) *Failure {
	if err := sc.Validate(); err != nil {
		return failf(InvEngine, "invalid scenario: %v", err)
	}
	if c.opts.Synthetic != nil {
		if err := c.opts.Synthetic(sc); err != nil {
			return failf(InvSynthetic, "%v", err)
		}
	}

	base, err := execute(sc, runSpec{
		parallelism: sc.Parallelism,
		spillWindow: sc.SpillWindow,
		saveLoadAt:  -1,
	})
	if err != nil {
		return failf(InvEngine, "base run: %v", err)
	}
	c.met.rounds.Add(int64(sc.Rounds))
	c.met.skips.Add(int64(len(base.skipped)))
	if base.unlearn != nil {
		c.met.unlearns.Inc()
	}

	// Invariants on the base run alone.
	if f := checkBacktrack(base); f != nil {
		return f
	}
	if f := checkStorage(sc.Rounds, sc.SpillWindow, base); f != nil {
		return f
	}

	// Determinism variants: each overrides exactly one dimension and
	// must reproduce the base run bit for bit.
	serial, err := execute(sc, runSpec{
		parallelism: 1,
		spillWindow: sc.SpillWindow,
		saveLoadAt:  -1,
	})
	if err != nil {
		return failf(InvEngine, "serial run: %v", err)
	}
	if f := compareRuns(InvParallelism, "Parallelism=1 vs base", base, serial); f != nil {
		return f
	}

	toggled := sc.SpillWindow
	if toggled > 0 {
		toggled = 0
	} else {
		toggled = 2
	}
	spillRun, err := execute(sc, runSpec{
		parallelism: sc.Parallelism,
		spillWindow: toggled,
		saveLoadAt:  -1,
	})
	if err != nil {
		return failf(InvEngine, "spill-toggled run: %v", err)
	}
	if f := compareRuns(InvSpill, fmt.Sprintf("spill window %d vs %d", toggled, sc.SpillWindow), base, spillRun); f != nil {
		return f
	}
	if f := checkStorage(sc.Rounds, toggled, spillRun); f != nil {
		return f
	}

	resumed, err := execute(sc, runSpec{
		parallelism: sc.Parallelism,
		spillWindow: sc.SpillWindow,
		saveLoadAt:  effectiveSaveLoad(sc),
	})
	if err != nil {
		return failf(InvEngine, "save/load run: %v", err)
	}
	c.met.saveloads.Inc()
	if f := compareRuns(InvSaveLoad, fmt.Sprintf("save/load at round %d vs straight run", effectiveSaveLoad(sc)), base, resumed); f != nil {
		return f
	}

	// Concurrent-unlearning variant: a commit pass begun mid-training
	// that chased the live tip must be bit-identical — result and
	// rewritten store — to stop-the-world over the finished history.
	if sc.Overlap > 0 && len(sc.Forget) > 0 {
		ov, stw, begin, err := executeOverlap(sc, runSpec{
			parallelism: sc.Parallelism,
			spillWindow: sc.SpillWindow,
			saveLoadAt:  -1,
		})
		if err != nil {
			return failf(InvEngine, "overlap run: %v", err)
		}
		if ov != nil {
			if f := compareCommits(begin, ov, stw); f != nil {
				return f
			}
		}
	}
	return nil
}

// compareCommits asserts the overlapped commit pass and the
// stop-the-world commit produced identical observables: the full
// unlearning result and the rewritten store's byte stream.
func compareCommits(begin int, ov, stw *commitOutcome) *Failure {
	what := fmt.Sprintf("overlap from round %d vs stop-the-world", begin)
	a, b := ov.res, stw.res
	if a.BacktrackRound != b.BacktrackRound {
		return failf(InvOverlap, "%s: backtrack rounds differ: %d vs %d", what, a.BacktrackRound, b.BacktrackRound)
	}
	if !slices.Equal(a.Forgotten, b.Forgotten) {
		return failf(InvOverlap, "%s: forgotten sets differ: %v vs %v", what, a.Forgotten, b.Forgotten)
	}
	if i := diffIndex(a.Unlearned, b.Unlearned); i >= 0 {
		return failf(InvOverlap, "%s: unlearned models differ at element %d: %v vs %v",
			what, i, a.Unlearned[i], b.Unlearned[i])
	}
	if i := diffIndex(a.Params, b.Params); i >= 0 {
		return failf(InvOverlap, "%s: recovered models differ at element %d: %v vs %v",
			what, i, a.Params[i], b.Params[i])
	}
	if a.RecoveredRounds != b.RecoveredRounds ||
		a.DegenerateFallbacks != b.DegenerateFallbacks ||
		a.PairRefreshes != b.PairRefreshes ||
		a.BootstrappedClients != b.BootstrappedClients {
		return failf(InvOverlap, "%s: unlearn counters differ: %+v vs %+v", what, *a, *b)
	}
	if !bytes.Equal(ov.snapshot, stw.snapshot) {
		return failf(InvOverlap, "%s: rewritten store snapshots differ (%d vs %d bytes)",
			what, len(ov.snapshot), len(stw.snapshot))
	}
	return nil
}

// checkBacktrack verifies eq. 5 independently: the unlearner's F must
// equal the minimum recorded join round of the forgotten clients, and
// the unlearned model must be bit-identical to the stored snapshot at
// that round.
func checkBacktrack(out *runOutcome) *Failure {
	if out.unlearn == nil {
		return nil
	}
	if out.unlearn.BacktrackRound != out.wantF {
		return failf(InvBacktrack, "backtrack round F=%d, independently derived %d",
			out.unlearn.BacktrackRound, out.wantF)
	}
	if i := diffIndex(out.unlearn.Unlearned, out.modelAtF); i >= 0 {
		return failf(InvBacktrack, "unlearned model differs from stored w_F at element %d: %v vs %v",
			i, out.unlearn.Unlearned[i], out.modelAtF[i])
	}
	return nil
}

// checkStorage verifies the Storage() accounting identities.
func checkStorage(rounds, window int, out *runOutcome) *Failure {
	st := out.storage
	dimBytes := 0
	if rounds > 0 {
		dimBytes = st.ModelBytes / rounds // 8·dim, back-derived
	}
	if st.ModelBytesResident+st.ModelBytesSpilled != st.ModelBytes {
		return failf(InvStorage, "resident %d + spilled %d ≠ model bytes %d",
			st.ModelBytesResident, st.ModelBytesSpilled, st.ModelBytes)
	}
	if window > 0 {
		wantSpilled := (rounds - window) * dimBytes
		if wantSpilled < 0 {
			wantSpilled = 0
		}
		if st.ModelBytesSpilled != wantSpilled {
			return failf(InvStorage, "window %d over %d rounds: spilled %d bytes, want %d",
				window, rounds, st.ModelBytesSpilled, wantSpilled)
		}
	} else if st.ModelBytesSpilled != 0 {
		return failf(InvStorage, "spilling disabled but %d bytes spilled", st.ModelBytesSpilled)
	}
	if st.DirectionBytes > st.FullGradientBytes {
		return failf(InvStorage, "direction bytes %d exceed full-gradient bytes %d",
			st.DirectionBytes, st.FullGradientBytes)
	}
	if st.FullGradientBytes > 0 && (st.GradientSavings < 0 || st.GradientSavings > 1 || math.IsNaN(st.GradientSavings)) {
		return failf(InvStorage, "gradient savings %v outside [0,1]", st.GradientSavings)
	}
	return nil
}

// compareRuns asserts two executions of the same scenario are
// bit-identical in every observable: final parameters, snapshot bytes,
// skipped rounds, and the full unlearning result.
func compareRuns(inv, what string, a, b *runOutcome) *Failure {
	if i := diffIndex(a.finalParams, b.finalParams); i >= 0 {
		return failf(inv, "%s: final params differ at element %d: %v vs %v",
			what, i, a.finalParams[i], b.finalParams[i])
	}
	if !slicesEqInt(a.skipped, b.skipped) {
		return failf(inv, "%s: skipped rounds differ: %v vs %v", what, a.skipped, b.skipped)
	}
	if !bytes.Equal(a.snapshot, b.snapshot) {
		return failf(inv, "%s: store snapshots differ (%d vs %d bytes)",
			what, len(a.snapshot), len(b.snapshot))
	}
	if (a.unlearn == nil) != (b.unlearn == nil) {
		return failf(inv, "%s: unlearn ran in one run but not the other", what)
	}
	if a.unlearn == nil {
		return nil
	}
	if a.unlearn.BacktrackRound != b.unlearn.BacktrackRound {
		return failf(inv, "%s: backtrack rounds differ: %d vs %d",
			what, a.unlearn.BacktrackRound, b.unlearn.BacktrackRound)
	}
	if i := diffIndex(a.unlearn.Unlearned, b.unlearn.Unlearned); i >= 0 {
		return failf(inv, "%s: unlearned models differ at element %d: %v vs %v",
			what, i, a.unlearn.Unlearned[i], b.unlearn.Unlearned[i])
	}
	if i := diffIndex(a.unlearn.Params, b.unlearn.Params); i >= 0 {
		return failf(inv, "%s: recovered models differ at element %d: %v vs %v",
			what, i, a.unlearn.Params[i], b.unlearn.Params[i])
	}
	if a.unlearn.RecoveredRounds != b.unlearn.RecoveredRounds ||
		a.unlearn.DegenerateFallbacks != b.unlearn.DegenerateFallbacks ||
		a.unlearn.PairRefreshes != b.unlearn.PairRefreshes ||
		a.unlearn.BootstrappedClients != b.unlearn.BootstrappedClients {
		return failf(inv, "%s: unlearn counters differ: %+v vs %+v", what, *a.unlearn, *b.unlearn)
	}
	return nil
}

// diffIndex returns the first index where a and b differ bitwise
// (treating NaN as equal to NaN), a length mismatch as 0, and -1 when
// identical.
func diffIndex(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func slicesEqInt(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
