package simtest

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"fuiov"
	"fuiov/internal/rng"
)

// runSpec are the per-variant knobs the checker layers over a
// scenario: the base run uses the scenario's own values, the
// determinism variants override exactly one dimension each.
type runSpec struct {
	parallelism int
	spillWindow int
	saveLoadAt  int // -1 = straight through
}

// runOutcome is everything one end-to-end execution exposes to the
// invariant checks.
type runOutcome struct {
	// finalParams is the global model after the last round.
	finalParams []float64
	// snapshot is the store's Save byte stream after training.
	snapshot []byte
	// storage is the Storage() report captured after training.
	storage fuiov.StorageReport
	// skipped lists rounds abandoned on quorum shortfall and skipped.
	skipped []int
	// unlearn is the unlearning result, nil when the forget set was
	// empty after filtering to clients the store has actually seen.
	unlearn *fuiov.UnlearnResult
	// forgotten is the filtered forget set the unlearner received.
	forgotten []fuiov.ClientID
	// wantF is the backtrack round recomputed independently: the
	// minimum recorded join round over the forgotten clients.
	wantF int
	// modelAtF is the store's model snapshot at the unlearner's
	// reported backtrack round, read back after recovery finished.
	modelAtF []float64
}

// buildShard synthesises one client's private dataset, a pure function
// of (scenario seed, client ID): a small labelled point cloud whose
// class means are separated enough for gradients to carry signal.
func buildShard(sc Scenario, cs ClientSpec) *fuiov.Dataset {
	r := rng.New(rng.Mix(sc.Seed, 0xda7a, uint64(cs.ID)+1))
	d := &fuiov.Dataset{
		Dims:    fuiov.Dims{C: sc.Features, H: 1, W: 1},
		Classes: sc.Classes,
		X:       make([][]float64, 0, cs.Samples),
		Y:       make([]int, 0, cs.Samples),
	}
	for i := 0; i < cs.Samples; i++ {
		label := r.IntN(sc.Classes)
		x := make([]float64, sc.Features)
		for j := range x {
			x[j] = 0.6*float64(label) + r.NormalScaled(0, 0.5)
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, label)
	}
	return d
}

// buildClients materialises the roster. Shards are rebuilt from the
// seed on every call, so resumed simulations get fresh but identical
// clients.
func buildClients(sc Scenario) []*fuiov.Client {
	clients := make([]*fuiov.Client, 0, len(sc.Clients))
	for _, cs := range sc.Clients {
		c := &fuiov.Client{
			ID:         fuiov.ClientID(cs.ID),
			Data:       buildShard(sc, cs),
			BatchSize:  cs.BatchSize,
			LocalSteps: cs.LocalSteps,
		}
		if cs.LocalSteps > 1 {
			c.LocalLR = sc.LearningRate
		}
		clients = append(clients, c)
	}
	return clients
}

// buildTemplate creates the scenario's MLP with parameters initialised
// deterministically from the scenario seed.
func buildTemplate(sc Scenario) *fuiov.Network {
	net := fuiov.NewMLP(sc.Features, sc.Hidden, sc.Classes)
	net.Init(fuiov.NewRNG(rng.Mix(sc.Seed, 0x1417)))
	return net
}

// buildSchedule maps the roster's participation intervals.
func buildSchedule(sc Scenario) fuiov.IntervalSchedule {
	s := make(fuiov.IntervalSchedule, len(sc.Clients))
	for _, cs := range sc.Clients {
		s[fuiov.ClientID(cs.ID)] = fuiov.Interval{Join: cs.Join, Leave: cs.Leave}
	}
	return s
}

// buildFaults compiles the per-client fault lists into a deterministic
// plan.
func buildFaults(sc Scenario) *fuiov.FaultPlan {
	plan := fuiov.NewFaultPlan(sc.Seed, fuiov.FaultSpec{})
	for _, cs := range sc.Clients {
		if len(cs.CrashAt) > 0 || len(cs.CorruptAt) > 0 {
			plan.SetClient(fuiov.ClientID(cs.ID), fuiov.FaultSpec{
				CrashAt:   cs.CrashAt,
				CorruptAt: cs.CorruptAt,
			})
		}
	}
	return plan
}

func (sc Scenario) clipMode() fuiov.ClipMode {
	switch sc.ClipMode {
	case ClipNorm:
		return fuiov.ClipNorm
	case ClipOff:
		return fuiov.ClipOff
	default:
		return fuiov.ClipElementwise
	}
}

// unlearnConfig is the recovery configuration every unlearning run of
// the scenario uses, at the variant's parallelism.
func (sc Scenario) unlearnConfig(rs runSpec) fuiov.UnlearnConfig {
	return fuiov.UnlearnConfig{
		PairSize:      sc.PairSize,
		ClipThreshold: sc.ClipThreshold,
		ClipMode:      sc.clipMode(),
		RefreshEvery:  sc.RefreshEvery,
		LearningRate:  sc.LearningRate,
		Parallelism:   rs.parallelism,
	}
}

// storeOptions returns the spill options for the given window.
func storeOptions(window int) []fuiov.StoreOption {
	if window <= 0 {
		return nil
	}
	return []fuiov.StoreOption{fuiov.WithSpill("", window)}
}

// execute runs one scenario end to end under the given variant spec:
// train Rounds rounds (skipping quorum-doomed ones), optionally
// save/load-resume mid-run, snapshot the store, then unlearn the
// forget set. Every returned value is a pure function of (sc, rs).
func execute(sc Scenario, rs runSpec) (*runOutcome, error) {
	out := &runOutcome{}
	template := buildTemplate(sc)
	schedule := buildSchedule(sc)
	plan := buildFaults(sc)
	policy := &fuiov.FaultPolicy{MaxRetries: sc.Retries, Quorum: sc.Quorum}

	store, err := fuiov.NewStore(template.NumParams(), 1e-6, storeOptions(rs.spillWindow)...)
	if err != nil {
		return nil, fmt.Errorf("new store: %w", err)
	}
	defer func() { store.Close() }()

	newSim := func(tpl *fuiov.Network, st *fuiov.Store, startRound int) (*fuiov.Simulation, error) {
		return fuiov.NewSimulation(tpl, buildClients(sc), fuiov.SimConfig{
			LearningRate: sc.LearningRate,
			Seed:         sc.Seed,
			Parallelism:  rs.parallelism,
			Schedule:     schedule,
			Store:        st,
			Faults:       plan,
			FaultPolicy:  policy,
			StartRound:   startRound,
		})
	}
	sim, err := newSim(template, store, 0)
	if err != nil {
		return nil, fmt.Errorf("new simulation: %w", err)
	}

	for sim.Round() < sc.Rounds {
		if sim.Round() == rs.saveLoadAt {
			// Mid-scenario persistence check: freeze the store to
			// bytes, reload it (with the same spill configuration) and
			// resume a brand-new simulation from the loaded history and
			// the saved global parameters.
			var buf bytes.Buffer
			if err := store.Save(&buf); err != nil {
				return nil, fmt.Errorf("round %d: save: %w", sim.Round(), err)
			}
			loaded, err := fuiov.LoadStore(bytes.NewReader(buf.Bytes()), storeOptions(rs.spillWindow)...)
			if err != nil {
				return nil, fmt.Errorf("round %d: load: %w", sim.Round(), err)
			}
			if loaded.Rounds() != sim.Round() {
				loaded.Close()
				return nil, fmt.Errorf("round %d: reloaded store has %d rounds", sim.Round(), loaded.Rounds())
			}
			resumed := template.Clone()
			resumed.SetParamVector(sim.Params())
			store.Close()
			store = loaded
			if sim, err = newSim(resumed, store, loaded.Rounds()); err != nil {
				return nil, fmt.Errorf("round %d: resume: %w", loaded.Rounds(), err)
			}
		}
		if err := sim.RunRoundContext(context.Background()); err != nil {
			if errors.Is(err, fuiov.ErrQuorumNotReached) {
				// Deterministically doomed round: skip it, as the
				// production caller would, and keep the history dense.
				out.skipped = append(out.skipped, sim.Round())
				if err := sim.SkipRound(); err != nil {
					return nil, fmt.Errorf("skip round: %w", err)
				}
				continue
			}
			return nil, fmt.Errorf("round %d: %w", sim.Round(), err)
		}
	}
	out.finalParams = sim.Params()
	out.storage = store.Storage()
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		return nil, fmt.Errorf("final save: %w", err)
	}
	out.snapshot = buf.Bytes()

	// Filter the forget set to clients the store has actually seen: a
	// client that crashed through every scheduled round never joined
	// from the server's point of view, so there is nothing to unlearn.
	out.wantF = -1
	for _, id := range sc.Forget {
		m, err := store.MembershipOf(fuiov.ClientID(id))
		if err != nil {
			if errors.Is(err, fuiov.ErrUnknownClient) {
				continue
			}
			return nil, fmt.Errorf("membership of %d: %w", id, err)
		}
		out.forgotten = append(out.forgotten, fuiov.ClientID(id))
		if out.wantF < 0 || m.JoinRound < out.wantF {
			out.wantF = m.JoinRound
		}
	}
	if len(out.forgotten) == 0 {
		return out, nil
	}

	unl, err := fuiov.NewUnlearner(store, sc.unlearnConfig(rs))
	if err != nil {
		return nil, fmt.Errorf("new unlearner: %w", err)
	}
	res, err := unl.UnlearnContext(context.Background(), out.forgotten...)
	if err != nil {
		return nil, fmt.Errorf("unlearn %v: %w", out.forgotten, err)
	}
	out.unlearn = res
	if out.modelAtF, err = store.Model(res.BacktrackRound); err != nil {
		return nil, fmt.Errorf("model at F=%d: %w", res.BacktrackRound, err)
	}
	return out, nil
}

// commitOutcome is one committed unlearning execution's observables:
// the full result and the rewritten store's Save byte stream.
type commitOutcome struct {
	res      *fuiov.UnlearnResult
	snapshot []byte
}

// knownForget filters sc.Forget to clients the store has recorded,
// reporting whether the whole set is already known.
func knownForget(store *fuiov.Store, forget []int) ([]fuiov.ClientID, bool, error) {
	var known []fuiov.ClientID
	all := true
	for _, id := range forget {
		if _, err := store.MembershipOf(fuiov.ClientID(id)); err != nil {
			if errors.Is(err, fuiov.ErrUnknownClient) {
				all = false
				continue
			}
			return nil, false, fmt.Errorf("membership of %d: %w", id, err)
		}
		known = append(known, fuiov.ClientID(id))
	}
	return known, all, nil
}

// executeOverlap runs the scenario's concurrent-unlearning variant:
// training proceeds round by round while, from the first committed
// round ≥ sc.Overlap at which every Forget client is known to the
// store, a commit pass chases the live tip (Advance after each round)
// and commits after the final round. It returns the overlapped outcome,
// the stop-the-world outcome (a fresh BeginCommit + Commit over the
// same finished history), and the round the pass began at. Both
// outcomes are nil when the forget set never materialised.
func executeOverlap(sc Scenario, rs runSpec) (overlapped, stopTheWorld *commitOutcome, beginRound int, err error) {
	template := buildTemplate(sc)
	schedule := buildSchedule(sc)
	plan := buildFaults(sc)
	policy := &fuiov.FaultPolicy{MaxRetries: sc.Retries, Quorum: sc.Quorum}

	store, err := fuiov.NewStore(template.NumParams(), 1e-6, storeOptions(rs.spillWindow)...)
	if err != nil {
		return nil, nil, -1, fmt.Errorf("new store: %w", err)
	}
	defer store.Close()

	sim, err := fuiov.NewSimulation(template, buildClients(sc), fuiov.SimConfig{
		LearningRate: sc.LearningRate,
		Seed:         sc.Seed,
		Parallelism:  rs.parallelism,
		Schedule:     schedule,
		Store:        store,
		Faults:       plan,
		FaultPolicy:  policy,
	})
	if err != nil {
		return nil, nil, -1, fmt.Errorf("new simulation: %w", err)
	}

	ctx := context.Background()
	var cp *fuiov.UnlearnCommitPass
	var forgotten []fuiov.ClientID
	beginRound = -1
	begin := func() error {
		unl, err := fuiov.NewUnlearner(store, sc.unlearnConfig(rs))
		if err != nil {
			return fmt.Errorf("new unlearner: %w", err)
		}
		if cp, err = unl.BeginCommit(forgotten...); err != nil {
			return fmt.Errorf("begin commit at round %d: %w", sim.Round(), err)
		}
		beginRound = sim.Round()
		return nil
	}
	for sim.Round() < sc.Rounds {
		if err := sim.RunRoundContext(context.Background()); err != nil {
			if !errors.Is(err, fuiov.ErrQuorumNotReached) {
				return nil, nil, -1, fmt.Errorf("round %d: %w", sim.Round(), err)
			}
			if err := sim.SkipRound(); err != nil {
				return nil, nil, -1, fmt.Errorf("skip round: %w", err)
			}
		}
		switch {
		case cp != nil:
			if _, err := cp.Advance(ctx); err != nil {
				return nil, nil, -1, fmt.Errorf("advance at round %d: %w", sim.Round(), err)
			}
		case sim.Round() >= sc.Overlap:
			known, all, err := knownForget(store, sc.Forget)
			if err != nil {
				return nil, nil, -1, err
			}
			// Begin only once the whole forget set is recorded, so the
			// pass's membership snapshot cannot be invalidated by a
			// forgotten client joining mid-pass.
			if all && len(known) > 0 {
				forgotten = known
				if err := begin(); err != nil {
					return nil, nil, -1, err
				}
			}
		}
	}
	if cp == nil {
		// Part of the forget set never joined: fall back to beginning
		// after the last round — a degenerate overlap, but the
		// comparison below still must hold bit for bit.
		known, _, err := knownForget(store, sc.Forget)
		if err != nil {
			return nil, nil, -1, err
		}
		if len(known) == 0 {
			return nil, nil, -1, nil
		}
		forgotten = known
		if err := begin(); err != nil {
			return nil, nil, -1, err
		}
	}
	res, ns, err := cp.Commit(ctx)
	if err != nil {
		return nil, nil, -1, fmt.Errorf("commit: %w", err)
	}
	overlapped = &commitOutcome{res: res}
	var buf bytes.Buffer
	if err := ns.Save(&buf); err != nil {
		return nil, nil, -1, fmt.Errorf("save overlapped store: %w", err)
	}
	overlapped.snapshot = bytes.Clone(buf.Bytes())
	ns.Close()

	// Stop-the-world comparator over the identical finished history.
	unl, err := fuiov.NewUnlearner(store, sc.unlearnConfig(rs))
	if err != nil {
		return nil, nil, -1, fmt.Errorf("new unlearner: %w", err)
	}
	swPass, err := unl.BeginCommit(forgotten...)
	if err != nil {
		return nil, nil, -1, fmt.Errorf("stop-the-world begin commit: %w", err)
	}
	swRes, swStore, err := swPass.Commit(ctx)
	if err != nil {
		return nil, nil, -1, fmt.Errorf("stop-the-world commit: %w", err)
	}
	stopTheWorld = &commitOutcome{res: swRes}
	buf.Reset()
	if err := swStore.Save(&buf); err != nil {
		return nil, nil, -1, fmt.Errorf("save stop-the-world store: %w", err)
	}
	stopTheWorld.snapshot = bytes.Clone(buf.Bytes())
	swStore.Close()
	return overlapped, stopTheWorld, beginRound, nil
}

// effectiveSaveLoad picks the round the save/load variant snapshots
// at: the scenario's own choice when set, else the midpoint.
func effectiveSaveLoad(sc Scenario) int {
	if sc.SaveLoadAt >= 0 {
		return sc.SaveLoadAt
	}
	return sc.Rounds / 2
}
