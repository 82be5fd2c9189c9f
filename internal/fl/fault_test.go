package fl

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"fuiov/internal/faults"
	"fuiov/internal/history"
	"fuiov/internal/metrics"
	"fuiov/internal/telemetry"
	"fuiov/internal/tensor"
)

// TestRunUnderCrashFaults is the tentpole acceptance scenario: with
// 30% of client attempts crashing per round under a seeded plan, the
// round engine completes every round via quorum (no hang, no abort),
// training still converges, and absentees are recorded as
// non-participants so the history stays consistent.
func TestRunUnderCrashFaults(t *testing.T) {
	clients, test, net := buildFederation(t, 10, 900, 5)
	store, err := history.NewStore(net.NumParams(), 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	sim, err := NewSimulation(net, clients, Config{
		LearningRate: 0.05,
		Seed:         5,
		Store:        store,
		Telemetry:    reg,
		Faults:       faults.NewPlan(5, faults.Spec{CrashProb: 0.3}),
		FaultPolicy:  &FaultPolicy{MaxRetries: 2, Quorum: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 80
	if err := sim.RunContext(context.Background(), rounds); err != nil {
		t.Fatalf("Run under 30%% crashes: %v", err)
	}
	if sim.Round() != rounds {
		t.Fatalf("round clock %d, want %d", sim.Round(), rounds)
	}
	if acc := metrics.AccuracyAt(net.Clone(), sim.Params(), test); acc < 0.55 {
		t.Errorf("accuracy %.3f under faults, want >= 0.55", acc)
	}
	// Absentees must be missing from the participation record, not
	// recorded with garbage: total participation strictly below the
	// fault-free client-round count, and every recorded participant
	// must have a stored direction.
	if store.Rounds() != rounds {
		t.Fatalf("store rounds %d, want %d", store.Rounds(), rounds)
	}
	participation := 0
	for r := 0; r < rounds; r++ {
		ids, err := store.Participants(r)
		if err != nil {
			t.Fatal(err)
		}
		participation += len(ids)
		for _, id := range ids {
			if _, err := store.Direction(r, id); err != nil {
				t.Fatalf("round %d participant %d has no direction: %v", r, id, err)
			}
		}
	}
	if participation >= rounds*len(clients) {
		t.Errorf("participation %d = full attendance; faults recorded no absentees", participation)
	}
	snap := reg.Snapshot()
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["fl.crashes"] == 0 || counters["fl.retries"] == 0 {
		t.Errorf("fault counters not wired: crashes=%d retries=%d",
			counters["fl.crashes"], counters["fl.retries"])
	}
	if counters["fl.absentees"] == 0 || counters["fl.degraded_rounds"] == 0 {
		t.Errorf("degradation counters not wired: absentees=%d degraded=%d",
			counters["fl.absentees"], counters["fl.degraded_rounds"])
	}
}

// TestFaultDeterminismAcrossParallelism: a seeded faulty run must be
// bit-identical at Parallelism 1 and at GOMAXPROCS, because fault
// outcomes are pure functions of (seed, client, round, attempt) and
// aggregation sums in sorted client order.
func TestFaultDeterminismAcrossParallelism(t *testing.T) {
	run := func(parallelism int) []float64 {
		clients, _, net := buildFederation(t, 8, 600, 11)
		sim, err := NewSimulation(net, clients, Config{
			LearningRate: 0.05,
			Seed:         11,
			Parallelism:  parallelism,
			Faults: faults.NewPlan(11, faults.Spec{
				CrashProb:   0.25,
				DelayMin:    10 * time.Millisecond,
				DelayMax:    300 * time.Millisecond,
				CorruptProb: 0.1,
			}),
			FaultPolicy: &FaultPolicy{
				ClientTimeout: 200 * time.Millisecond,
				MaxRetries:    2,
				Quorum:        0.25,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunContext(context.Background(), 25); err != nil {
			t.Fatal(err)
		}
		return sim.Params()
	}
	serial := run(1)
	parallel := run(0) // GOMAXPROCS
	if len(serial) != len(parallel) {
		t.Fatalf("dimension mismatch %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("param %d differs across parallelism: %v vs %v", i, serial[i], parallel[i])
		}
	}
}

// TestQuorumShortfall: when fewer clients respond than the quorum
// demands, the round fails with the typed sentinel and the clock does
// not advance.
func TestQuorumShortfall(t *testing.T) {
	clients, _, net := buildFederation(t, 4, 200, 3)
	allCrash := faults.Func(func(history.ClientID, int, int) faults.Outcome {
		return faults.Outcome{Crash: true}
	})
	reg := telemetry.New()
	sim, err := NewSimulation(net, clients, Config{
		LearningRate: 0.1,
		Seed:         3,
		Telemetry:    reg,
		Faults:       allCrash,
		FaultPolicy:  &FaultPolicy{MaxRetries: 1, Quorum: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := net.ParamVector()
	err = sim.RunRoundContext(context.Background())
	if !errors.Is(err, ErrQuorumNotReached) {
		t.Fatalf("err = %v, want ErrQuorumNotReached", err)
	}
	if sim.Round() != 0 {
		t.Errorf("round clock advanced to %d on a failed round", sim.Round())
	}
	after := sim.Params()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("model moved on a quorum-failed round")
		}
	}
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "fl.quorum_shortfalls" && c.Value == 0 {
			t.Error("quorum shortfall counter not incremented")
		}
	}
}

// TestSkipRoundAfterQuorumShortfall: fault outcomes are deterministic per
// (client, round), so a quorum-failed round replays identically —
// SkipRound is the caller's way past it: an empty round is recorded,
// the clock advances, and the next round proceeds normally.
func TestSkipRoundAfterQuorumShortfall(t *testing.T) {
	clients, _, net := buildFederation(t, 4, 200, 11)
	store, err := history.NewStore(net.NumParams(), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Every client crashes in round 0 only.
	round0Crash := faults.Func(func(_ history.ClientID, round, _ int) faults.Outcome {
		return faults.Outcome{Crash: round == 0}
	})
	reg := telemetry.New()
	sim, err := NewSimulation(net, clients, Config{
		LearningRate: 0.1,
		Seed:         11,
		Store:        store,
		Telemetry:    reg,
		Faults:       round0Crash,
		FaultPolicy:  &FaultPolicy{MaxRetries: 1, Quorum: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunRoundContext(context.Background()); !errors.Is(err, ErrQuorumNotReached) {
		t.Fatalf("round 0 err = %v, want ErrQuorumNotReached", err)
	}
	before := sim.Params()
	if err := sim.SkipRound(); err != nil {
		t.Fatalf("SkipRound: %v", err)
	}
	if sim.Round() != 1 {
		t.Fatalf("round clock = %d after skip, want 1", sim.Round())
	}
	after := sim.Params()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("model moved on a skipped round")
		}
	}
	ps, err := store.Participants(0)
	if err != nil {
		t.Fatalf("Participants(0): %v", err)
	}
	if len(ps) != 0 {
		t.Fatalf("skipped round recorded %d participants, want 0", len(ps))
	}
	if err := sim.RunRoundContext(context.Background()); err != nil {
		t.Fatalf("round 1 after skip: %v", err)
	}
	if store.Rounds() != 2 {
		t.Fatalf("store has %d rounds, want 2", store.Rounds())
	}
	var skips int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == string(telemetry.FLSkippedRounds) {
			skips = c.Value
		}
	}
	if skips != 1 {
		t.Errorf("fl.skipped_rounds = %d, want 1", skips)
	}
}

// TestCorruptUploadRejected: with a policy attached, corrupted uploads
// are validated away — the corrupting client simply goes absent and
// the model never sees a non-finite value.
func TestCorruptUploadRejected(t *testing.T) {
	clients, _, net := buildFederation(t, 5, 300, 7)
	corruptor := faults.Func(func(id history.ClientID, _, _ int) faults.Outcome {
		return faults.Outcome{Corrupt: id == 0}
	})
	reg := telemetry.New()
	sim, err := NewSimulation(net, clients, Config{
		LearningRate: 0.05,
		Seed:         7,
		Telemetry:    reg,
		Faults:       corruptor,
		FaultPolicy:  &FaultPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if !validUpload(sim.Params()) {
		t.Fatal("corrupt upload leaked into the aggregated model")
	}
	var rejected int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "fl.corrupt_uploads" {
			rejected = c.Value
		}
	}
	if rejected == 0 {
		t.Error("corrupt upload counter not incremented")
	}
}

// TestLegacyStrictSemantics: without a policy the engine is strict —
// crashes abort the round with every failing client named under the
// wrapped sentinel and counted in fl.client_errors, and corruption
// flows unvalidated into the model (the unprotected baseline the fault
// layer exists to fix).
func TestLegacyStrictSemantics(t *testing.T) {
	crash := faults.Func(func(id history.ClientID, _, _ int) faults.Outcome {
		return faults.Outcome{Crash: id != 0}
	})
	clients, _, net := buildFederation(t, 3, 200, 9)
	reg := telemetry.New()
	sim, err := NewSimulation(net, clients, Config{LearningRate: 0.1, Seed: 9, Faults: crash, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	err = sim.RunRoundContext(context.Background())
	if !errors.Is(err, ErrClientCrash) {
		t.Fatalf("strict crash err = %v, want ErrClientCrash", err)
	}
	for _, want := range []string{"client 1", "client 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if strings.Contains(err.Error(), "client 0") {
		t.Errorf("error %q names the healthy client", err)
	}
	if got := reg.Counter(telemetry.FLClientErrors).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", telemetry.FLClientErrors, got)
	}
	if sim.Round() != 0 {
		t.Errorf("failed round advanced the clock to %d", sim.Round())
	}

	clients2, _, net2 := buildFederation(t, 3, 200, 9)
	corrupt := faults.Func(func(history.ClientID, int, int) faults.Outcome {
		return faults.Outcome{Corrupt: true}
	})
	sim2, err := NewSimulation(net2, clients2, Config{LearningRate: 0.1, Seed: 9, Faults: corrupt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim2.RunRoundContext(context.Background()); err != nil {
		t.Fatalf("strict mode rejected a corrupt upload: %v", err)
	}
	if validUpload(sim2.Params()) {
		t.Error("corruption did not reach the model; strict mode should not validate uploads")
	}
}

// TestRunContextCancellation: cancelling mid-Run returns promptly with
// context.Canceled at a round boundary, leaving the committed history
// readable.
func TestRunContextCancellation(t *testing.T) {
	clients, _, net := buildFederation(t, 4, 300, 13)
	store, err := history.NewStore(net.NumParams(), 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Pull the plug from inside round 3's fault adjudication — the
	// round in flight must be abandoned without committing.
	trip := faults.Func(func(_ history.ClientID, round, _ int) faults.Outcome {
		if round == 3 {
			cancel()
		}
		return faults.Outcome{}
	})
	sim, err := NewSimulation(net, clients, Config{
		LearningRate: 0.1,
		Seed:         13,
		Store:        store,
		Faults:       trip,
		FaultPolicy:  &FaultPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = sim.RunContext(ctx, 100)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sim.Round() != 3 {
		t.Errorf("round clock %d, want 3 (cancelled round must not commit)", sim.Round())
	}
	if store.Rounds() != 3 {
		t.Errorf("store rounds %d, want 3", store.Rounds())
	}
	if _, err := store.Model(0); err != nil {
		t.Errorf("store unreadable after cancellation: %v", err)
	}

	// An already-cancelled context returns immediately.
	done, cancelled := context.WithCancel(context.Background())
	cancelled()
	if err := sim.RunContext(done, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunContext err = %v", err)
	}
}

func TestFaultPolicyValidate(t *testing.T) {
	var nilPolicy *FaultPolicy
	if err := nilPolicy.Validate(); err != nil {
		t.Errorf("nil policy must validate: %v", err)
	}
	bad := []FaultPolicy{
		{ClientTimeout: -time.Second},
		{MaxRetries: -1},
		{Quorum: -0.1},
		{Quorum: 1.1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad policy %d validated", i)
		}
	}
	good := FaultPolicy{ClientTimeout: time.Second, MaxRetries: 3, Quorum: 0.8}
	if err := good.Validate(); err != nil {
		t.Errorf("good policy rejected: %v", err)
	}
}

// TestNaNOptionsRejected: a NaN option fails its range check instead
// of slipping past both ends of it (a NaN quorum would otherwise make
// QuorumCount negative and turn the quorum off), and so does an
// infinite learning rate.
func TestNaNOptionsRejected(t *testing.T) {
	clients, _, net := buildFederation(t, 2, 60, 1)
	nan := math.NaN()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"learning rate", Config{LearningRate: nan}},
		{"learning rate +Inf", Config{LearningRate: math.Inf(1)}},
		{"quorum", Config{LearningRate: 0.1, FaultPolicy: &FaultPolicy{Quorum: nan}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewSimulation(net, clients, tc.cfg); err == nil {
				t.Error("NewSimulation accepted it")
			}
		})
	}
}

func TestQuorumCount(t *testing.T) {
	p := &FaultPolicy{Quorum: 0.5}
	cases := []struct{ scheduled, want int }{
		{0, 0}, {1, 1}, {2, 1}, {3, 2}, {10, 5},
	}
	for _, c := range cases {
		if got := p.QuorumCount(c.scheduled); got != c.want {
			t.Errorf("QuorumCount(%d) = %d, want %d", c.scheduled, got, c.want)
		}
	}
	full := &FaultPolicy{Quorum: 1}
	if got := full.QuorumCount(7); got != 7 {
		t.Errorf("full quorum of 7 = %d", got)
	}
	var nilPolicy *FaultPolicy
	if got := nilPolicy.QuorumCount(9); got != 0 {
		t.Errorf("nil policy quorum = %d, want 0", got)
	}
}

// validUpload reports whether g is non-empty with every element finite.
func validUpload(g []float64) bool {
	return len(g) > 0 && tensor.AllFinite(g)
}
