package simtest

import (
	"flag"
	"fmt"
	"testing"

	"fuiov/internal/telemetry"
)

var (
	flagSeed     = flag.Uint64("seed", 0, "replay the scenario generated from this seed (TestReplay)")
	flagSchedule = flag.String("schedule", "", "replay this exact schedule JSON (TestReplay; wins over -seed)")
	flagLong     = flag.Bool("long", false, "widen TestScenarioSmoke from the CI smoke batch to the soak batch")
)

const (
	smokeScenarios = 32  // CI smoke mode
	soakScenarios  = 256 // -long soak mode
	smokeSeedBase  = 0x51a7e50
)

// TestScenarioSmoke is the harness's CI entry: a fixed batch of
// generated schedules, each checked against every invariant. On
// failure it shrinks to a minimal reproducer and prints the replay
// command. `-long` widens the batch for soak runs.
func TestScenarioSmoke(t *testing.T) {
	n := smokeScenarios
	if *flagLong {
		n = soakScenarios
	}
	reg := telemetry.New()
	c := newChecker(Options{Telemetry: reg})
	var covered struct {
		unlearn, faults, spill, saveload, quorum, parallel, overlap int
	}
	for i := 0; i < n; i++ {
		seed := uint64(smokeSeedBase + i)
		sc := generate(seed)
		if len(sc.Forget) > 0 {
			covered.unlearn++
		}
		for _, cs := range sc.Clients {
			if len(cs.CrashAt) > 0 || len(cs.CorruptAt) > 0 {
				covered.faults++
				break
			}
		}
		if sc.SpillWindow > 0 {
			covered.spill++
		}
		if sc.SaveLoadAt >= 0 {
			covered.saveload++
		}
		if sc.Quorum > 0 {
			covered.quorum++
		}
		if sc.Parallelism == 0 || sc.Parallelism > 1 {
			covered.parallel++
		}
		if sc.Overlap > 0 {
			covered.overlap++
		}
		if f := c.check(sc); f != nil {
			minimal, mf := c.shrink(sc, f)
			t.Fatalf("seed %d violated %s: %s\nminimal schedule: %s\nminimal failure: %v\nreplay: %s",
				seed, f.Invariant, f.Message, minimal.Encode(), mf, replayCommand(seed, minimal))
		}
	}
	// The batch must actually exercise the machinery, not just pass:
	// every dimension the tentpole names has to appear at least once.
	for _, d := range [...]struct {
		name string
		n    int
	}{
		{"unlearn", covered.unlearn},
		{"faults", covered.faults},
		{"spill", covered.spill},
		{"saveload", covered.saveload},
		{"quorum", covered.quorum},
		{"parallelism", covered.parallel},
		{"overlap", covered.overlap},
	} {
		if d.n == 0 {
			t.Errorf("smoke batch of %d scenarios never covered %s", n, d.name)
		}
	}
	t.Logf("%d scenarios, %d rounds, %d unlearns, %d skipped rounds, %d save/loads",
		reg.Counter(telemetry.SimScenarios).Value(),
		reg.Counter(telemetry.SimScenarioRounds).Value(),
		reg.Counter(telemetry.SimScenarioUnlearns).Value(),
		reg.Counter(telemetry.SimScenarioSkips).Value(),
		reg.Counter(telemetry.SimScenarioSaveLoads).Value())
}

// TestReplay re-executes a single reproducer: `-schedule '<json>'`
// replays an exact (typically shrunk) schedule, `-seed N` regenerates
// and replays a generator seed. Without either flag it skips — it
// exists to be pasted from a failure report.
func TestReplay(t *testing.T) {
	var sc Scenario
	switch {
	case *flagSchedule != "":
		var err error
		if sc, err = decodeScenario(*flagSchedule); err != nil {
			t.Fatalf("bad -schedule: %v", err)
		}
	case *flagSeed != 0:
		sc = generate(*flagSeed)
	default:
		t.Skip("pass -seed or -schedule to replay a reproducer")
	}
	c := newChecker(Options{})
	if f := c.check(sc); f != nil {
		minimal, mf := c.shrink(sc, f)
		t.Fatalf("violated %s: %s\nminimal schedule: %s\nminimal failure: %v\nreplay: %s",
			f.Invariant, f.Message, minimal.Encode(), mf, replayCommand(sc.Seed, minimal))
	}
}

// plantedViolation is the synthetic invariant used to test the shrink
// machinery itself: it "fails" any scenario with at least 3 rounds and
// 2 clients, so the known-minimal reproducer is exactly (3 rounds,
// 2 clients, everything else at its plainest).
func plantedViolation(sc Scenario) error {
	if sc.Rounds >= 3 && len(sc.Clients) >= 2 {
		return fmt.Errorf("planted violation: rounds=%d clients=%d", sc.Rounds, len(sc.Clients))
	}
	return nil
}

// TestShrinkDeterministic plants a synthetic invariant violation and
// asserts the acceptance criterion directly: replaying the same failing
// seed reproduces the identical minimal schedule and failure message,
// across independent checkers and when the shrunk schedule itself is
// re-checked cold.
func TestShrinkDeterministic(t *testing.T) {
	const seed = 7
	sc := generate(seed)

	run := func() (Scenario, *Failure) {
		c := newChecker(Options{Synthetic: plantedViolation})
		f := c.check(sc)
		if f == nil {
			t.Fatal("planted violation did not fire")
		}
		if f.Invariant != InvSynthetic {
			t.Fatalf("planted violation reported invariant %q, want %q", f.Invariant, InvSynthetic)
		}
		return c.shrink(sc, f)
	}
	m1, f1 := run()
	m2, f2 := run()

	if e1, e2 := m1.Encode(), m2.Encode(); e1 != e2 {
		t.Fatalf("shrink not deterministic:\n%s\n%s", e1, e2)
	}
	if f1.Invariant != f2.Invariant || f1.Message != f2.Message {
		t.Fatalf("shrunk failures differ: %v vs %v", f1, f2)
	}
	if r1, r2 := replayCommand(seed, m1), replayCommand(seed, m2); r1 != r2 {
		t.Fatalf("replay commands differ:\n%s\n%s", r1, r2)
	}

	// The shrinker must have reached the known minimum of the planted
	// predicate, stripping everything it doesn't mention.
	if m1.Rounds != 3 || len(m1.Clients) != 2 {
		t.Errorf("minimal reproducer has rounds=%d clients=%d, want 3 and 2: %s",
			m1.Rounds, len(m1.Clients), m1.Encode())
	}
	if len(m1.Forget) != 0 {
		t.Errorf("minimal reproducer kept forget set %v", m1.Forget)
	}
	for _, cs := range m1.Clients {
		if len(cs.CrashAt) != 0 || len(cs.CorruptAt) != 0 {
			t.Errorf("minimal reproducer kept faults on client %d", cs.ID)
		}
	}

	// Re-checking the minimal schedule cold fails identically — the
	// printed reproducer is the failure it claims to be.
	c := newChecker(Options{Synthetic: plantedViolation})
	f3 := c.check(m1)
	if f3 == nil || f3.Invariant != f1.Invariant || f3.Message != f1.Message {
		t.Fatalf("minimal schedule re-check got %v, want %v", f3, f1)
	}
}

// TestShrinkPreservesValidity walks the shrinker's candidate generator
// over a busy scenario and asserts every candidate stays inside the
// grammar — the clamping in setRounds/dropClient is what keeps delta
// debugging from wandering out of the schedule language.
func TestShrinkPreservesValidity(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		sc := generate(seed)
		for i, cand := range candidates(sc) {
			if err := cand.Validate(); err != nil {
				t.Errorf("seed %d candidate %d invalid: %v\n%s", seed, i, err, cand.Encode())
			}
		}
	}
}

// TestOverlapVariant pins the concurrent-unlearning verb directly on a
// hand-forced schedule: the overlapped commit pass must actually begin
// mid-training and land bit-identical to stop-the-world.
func TestOverlapVariant(t *testing.T) {
	sc := generate(42)
	sc.Overlap = 2
	sc.SaveLoadAt = -1
	// Every client joins at round 0 with no faults, so the whole
	// forget set is known when round Overlap commits and the pass
	// genuinely chases the live tip.
	for i := range sc.Clients {
		sc.Clients[i].Join = 0
		sc.Clients[i].Leave = -1
		sc.Clients[i].CrashAt = nil
		sc.Clients[i].CorruptAt = nil
	}
	sc.Quorum = 0
	if err := sc.Validate(); err != nil {
		t.Fatalf("forced schedule invalid: %v", err)
	}
	ov, stw, begin, err := executeOverlap(sc, runSpec{
		parallelism: sc.Parallelism,
		spillWindow: sc.SpillWindow,
		saveLoadAt:  -1,
	})
	if err != nil {
		t.Fatalf("overlap run: %v", err)
	}
	if ov == nil || stw == nil {
		t.Fatal("overlap variant did not run despite a non-empty forget set")
	}
	if begin != sc.Overlap {
		t.Fatalf("pass began at round %d, want %d", begin, sc.Overlap)
	}
	if begin >= sc.Rounds {
		t.Fatalf("pass began at round %d of %d — never overlapped training", begin, sc.Rounds)
	}
	if f := compareCommits(begin, ov, stw); f != nil {
		t.Fatalf("overlapped commit diverged: %v", f)
	}
	if f := newChecker(Options{}).check(sc); f != nil {
		t.Fatalf("full check on overlap schedule: %v", f)
	}
}
