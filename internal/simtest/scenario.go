package simtest

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"fuiov/internal/rng"
)

// Grammar bounds. Scenarios are meant to be small and fast — the
// harness buys coverage from the number of schedules, not their size —
// so Validate rejects anything that would turn a smoke run into a
// training job.
const (
	maxRounds   = 512
	maxClients  = 16
	maxSamples  = 64
	maxModelDim = 64 // per-layer width bound (features/hidden/classes)
)

// ClientSpec is one vehicle's row in the schedule grammar: its shard,
// its participation interval, and its deterministic fault rounds.
type ClientSpec struct {
	// ID is the client's federation identity (unique, ≥ 0).
	ID int `json:"id"`
	// Samples is the client's shard size.
	Samples int `json:"samples"`
	// BatchSize caps the per-round mini-batch (0 = full shard).
	BatchSize int `json:"batch,omitempty"`
	// LocalSteps is the number of local SGD steps per round (0 or 1 =
	// FedSGD).
	LocalSteps int `json:"local_steps,omitempty"`
	// Join is the first round the schedule admits the client.
	Join int `json:"join"`
	// Leave is the round the client leaves, or -1 to stay forever.
	Leave int `json:"leave"`
	// CrashAt lists rounds where the client crashes hard (every
	// attempt).
	CrashAt []int `json:"crash_at,omitempty"`
	// CorruptAt lists rounds where the client's first upload is
	// corrupted in flight (retries are clean).
	CorruptAt []int `json:"corrupt_at,omitempty"`
}

// Scenario is one randomized schedule: everything the engine needs to
// run the composed system deterministically end to end. The JSON
// encoding (Encode/decodeScenario) is the `-schedule` replay format.
type Scenario struct {
	// Seed drives every random draw: dataset synthesis, model init,
	// mini-batch sampling and probabilistic faults (the deterministic
	// CrashAt/CorruptAt lists are already explicit).
	Seed uint64 `json:"seed"`
	// Rounds is the number of federated rounds trained before the
	// unlearn request.
	Rounds int `json:"rounds"`
	// Features, Hidden and Classes size the MLP (features → hidden →
	// classes) and the synthetic shards.
	Features int `json:"features"`
	Hidden   int `json:"hidden"`
	Classes  int `json:"classes"`
	// LearningRate is η in eq. 2, shared by training and recovery.
	LearningRate float64 `json:"lr"`
	// Clients is the federation roster.
	Clients []ClientSpec `json:"clients"`
	// Forget lists the client IDs unlearned after the last round.
	// Empty skips the unlearn phase. IDs that never managed to
	// participate (e.g. crashed on every scheduled round) are filtered
	// at run time.
	Forget []int `json:"forget,omitempty"`
	// Overlap, when > 0, additionally runs the overlapped-unlearning
	// variant: once round Overlap has committed (and every Forget
	// client is known to the store) a commit pass begins and chases the
	// live round tip while training continues; its committed result
	// must be bit-identical to a stop-the-world BeginCommit + Commit
	// over the finished history. 0 skips the variant; it is a no-op when
	// Forget is empty.
	Overlap int `json:"overlap,omitempty"`
	// SpillWindow, when > 0, bounds the store's resident snapshots to
	// that many newest rounds (WithSpill). 0 keeps everything in RAM.
	SpillWindow int `json:"spill,omitempty"`
	// SaveLoadAt is the round before which the save/load-resume
	// variant snapshots and reloads the store (-1 lets the checker pick
	// the midpoint).
	SaveLoadAt int `json:"saveload"`
	// Parallelism bounds concurrent client computations and recovery
	// estimations in the base run (0 = GOMAXPROCS). The checker always
	// replays at Parallelism 1 and asserts bit-identical results.
	Parallelism int `json:"par,omitempty"`
	// PairSize is s, the L-BFGS window; RefreshEvery the pair-refresh
	// period (both ≥ 1).
	PairSize     int `json:"pairs"`
	RefreshEvery int `json:"refresh"`
	// ClipThreshold is L in eq. 7; ClipMode is "elementwise", "norm"
	// or "off".
	ClipThreshold float64 `json:"clip_l"`
	ClipMode      string  `json:"clip_mode"`
	// Quorum is the fault policy's minimum responding fraction;
	// Retries its per-client retry budget.
	Quorum  float64 `json:"quorum,omitempty"`
	Retries int     `json:"retries,omitempty"`
}

// Clip-mode grammar strings.
const (
	ClipElementwise = "elementwise"
	ClipNorm        = "norm"
	ClipOff         = "off"
)

// Validate checks the scenario against the grammar bounds. Every
// scenario the generator emits and every shrink candidate passes it.
func (sc *Scenario) Validate() error {
	if sc.Rounds < 1 || sc.Rounds > maxRounds {
		return fmt.Errorf("simtest: rounds %d outside [1,%d]", sc.Rounds, maxRounds)
	}
	for _, d := range [...]struct {
		name string
		v    int
	}{{"features", sc.Features}, {"hidden", sc.Hidden}, {"classes", sc.Classes}} {
		if d.v < 2 || d.v > maxModelDim {
			return fmt.Errorf("simtest: %s %d outside [2,%d]", d.name, d.v, maxModelDim)
		}
	}
	if sc.LearningRate <= 0 || sc.LearningRate > 1 {
		return fmt.Errorf("simtest: learning rate %v outside (0,1]", sc.LearningRate)
	}
	if len(sc.Clients) < 1 || len(sc.Clients) > maxClients {
		return fmt.Errorf("simtest: %d clients outside [1,%d]", len(sc.Clients), maxClients)
	}
	seen := make(map[int]bool, len(sc.Clients))
	for _, c := range sc.Clients {
		if c.ID < 0 {
			return fmt.Errorf("simtest: negative client ID %d", c.ID)
		}
		if seen[c.ID] {
			return fmt.Errorf("simtest: duplicate client ID %d", c.ID)
		}
		seen[c.ID] = true
		if c.Samples < 1 || c.Samples > maxSamples {
			return fmt.Errorf("simtest: client %d samples %d outside [1,%d]", c.ID, c.Samples, maxSamples)
		}
		if c.BatchSize < 0 || c.BatchSize > c.Samples {
			return fmt.Errorf("simtest: client %d batch %d outside [0,%d]", c.ID, c.BatchSize, c.Samples)
		}
		if c.LocalSteps < 0 || c.LocalSteps > 4 {
			return fmt.Errorf("simtest: client %d local steps %d outside [0,4]", c.ID, c.LocalSteps)
		}
		if c.Join < 0 || c.Join >= sc.Rounds {
			return fmt.Errorf("simtest: client %d join %d outside [0,%d)", c.ID, c.Join, sc.Rounds)
		}
		if c.Leave != -1 && (c.Leave <= c.Join || c.Leave > sc.Rounds) {
			return fmt.Errorf("simtest: client %d leave %d outside (%d,%d]", c.ID, c.Leave, c.Join, sc.Rounds)
		}
		for _, r := range c.CrashAt {
			if r < 0 || r >= sc.Rounds {
				return fmt.Errorf("simtest: client %d crash round %d outside [0,%d)", c.ID, r, sc.Rounds)
			}
		}
		for _, r := range c.CorruptAt {
			if r < 0 || r >= sc.Rounds {
				return fmt.Errorf("simtest: client %d corrupt round %d outside [0,%d)", c.ID, r, sc.Rounds)
			}
		}
	}
	for _, id := range sc.Forget {
		if !seen[id] {
			return fmt.Errorf("simtest: forget lists unknown client %d", id)
		}
	}
	if sc.Overlap < 0 || sc.Overlap > sc.Rounds {
		return fmt.Errorf("simtest: overlap round %d outside [0,%d]", sc.Overlap, sc.Rounds)
	}
	if sc.SpillWindow < 0 || sc.SpillWindow > maxRounds {
		return fmt.Errorf("simtest: spill window %d outside [0,%d]", sc.SpillWindow, maxRounds)
	}
	if sc.SaveLoadAt < -1 || sc.SaveLoadAt >= sc.Rounds {
		return fmt.Errorf("simtest: saveload round %d outside [-1,%d)", sc.SaveLoadAt, sc.Rounds)
	}
	if sc.Parallelism < 0 || sc.Parallelism > 32 {
		return fmt.Errorf("simtest: parallelism %d outside [0,32]", sc.Parallelism)
	}
	if sc.PairSize < 1 || sc.PairSize > 8 {
		return fmt.Errorf("simtest: pair size %d outside [1,8]", sc.PairSize)
	}
	if sc.RefreshEvery < 1 || sc.RefreshEvery > maxRounds {
		return fmt.Errorf("simtest: refresh period %d outside [1,%d]", sc.RefreshEvery, maxRounds)
	}
	if sc.ClipThreshold <= 0 {
		return fmt.Errorf("simtest: clip threshold %v not positive", sc.ClipThreshold)
	}
	switch sc.ClipMode {
	case ClipElementwise, ClipNorm, ClipOff:
	default:
		return fmt.Errorf("simtest: unknown clip mode %q", sc.ClipMode)
	}
	if sc.Quorum < 0 || sc.Quorum > 1 {
		return fmt.Errorf("simtest: quorum %v outside [0,1]", sc.Quorum)
	}
	if sc.Retries < 0 || sc.Retries > 3 {
		return fmt.Errorf("simtest: retries %d outside [0,3]", sc.Retries)
	}
	return nil
}

// Encode renders the scenario as its compact, deterministic JSON
// `-schedule` form. Field order follows the struct, slices keep their
// order, so equal scenarios encode to equal bytes — the shrink
// determinism test depends on that.
func (sc Scenario) Encode() string {
	b, err := json.Marshal(sc)
	if err != nil {
		// Scenario holds only plain data; Marshal cannot fail.
		panic(fmt.Sprintf("simtest: encode: %v", err))
	}
	return string(b)
}

// decodeScenario parses a `-schedule` string produced by Encode and
// validates it.
func decodeScenario(s string) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(strings.NewReader(s))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("simtest: decode schedule: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// generate derives a random-but-deterministic scenario from seed: same
// seed, same schedule, forever. The distributions are tuned so the
// interesting machinery fires often — small clip thresholds so eq. 7
// actually clips, short refresh periods so pairs rotate, crash lists
// so rounds degrade, spill windows shorter than the run.
func generate(seed uint64) Scenario {
	r := rng.New(rng.Mix(seed, 0x5ce0a10))
	sc := Scenario{
		Seed:          seed,
		Rounds:        6 + r.IntN(9), // 6..14
		Features:      3 + r.IntN(4), // 3..6
		Hidden:        3 + r.IntN(5), // 3..7
		Classes:       2 + r.IntN(3), // 2..4
		LearningRate:  0.05 + 0.15*r.Float64(),
		SaveLoadAt:    -1,
		PairSize:      1 + r.IntN(3),
		RefreshEvery:  2 + r.IntN(4),
		ClipThreshold: 0.02 + 0.4*r.Float64(),
		Retries:       1,
	}
	switch r.IntN(10) {
	case 0, 1, 2:
		sc.ClipMode = ClipNorm
	case 3:
		sc.ClipMode = ClipOff
	default:
		sc.ClipMode = ClipElementwise
	}
	if r.Bernoulli(0.5) {
		sc.SpillWindow = 2 + r.IntN(3)
	}
	if r.Bernoulli(0.5) {
		sc.SaveLoadAt = r.IntN(sc.Rounds)
	}
	switch r.IntN(3) {
	case 0:
		sc.Parallelism = 0 // GOMAXPROCS
	case 1:
		sc.Parallelism = 2
	case 2:
		sc.Parallelism = 3
	}
	if r.Bernoulli(0.3) {
		sc.Quorum = 0.2 + 0.3*r.Float64()
	}
	n := 2 + r.IntN(4) // 2..5 clients
	for i := 0; i < n; i++ {
		cs := ClientSpec{
			ID:      i,
			Samples: 3 + r.IntN(6),
			Join:    0,
			Leave:   -1,
		}
		if r.Bernoulli(0.5) {
			cs.Join = r.IntN(sc.Rounds/2 + 1)
		}
		if r.Bernoulli(0.2) && cs.Join+1 < sc.Rounds {
			cs.Leave = cs.Join + 1 + r.IntN(sc.Rounds-cs.Join-1)
		}
		if r.Bernoulli(0.4) {
			cs.BatchSize = 1 + r.IntN(cs.Samples)
		}
		if r.Bernoulli(0.2) {
			cs.LocalSteps = 2
		}
		for k := r.IntN(3); k > 0; k-- { // 0..2 crash rounds
			cs.CrashAt = appendUnique(cs.CrashAt, r.IntN(sc.Rounds))
		}
		for k := r.IntN(2); k > 0; k-- { // 0..1 corrupt rounds
			cs.CorruptAt = appendUnique(cs.CorruptAt, r.IntN(sc.Rounds))
		}
		slices.Sort(cs.CrashAt)
		slices.Sort(cs.CorruptAt)
		sc.Clients = append(sc.Clients, cs)
	}
	// Forget 1–2 clients, biased toward late joiners (shallow
	// backtracks) half the time, early joiners (deep recoveries) the
	// rest.
	k := 1 + r.IntN(2)
	perm := r.Perm(n)
	for _, idx := range perm {
		if k == 0 {
			break
		}
		sc.Forget = append(sc.Forget, sc.Clients[idx].ID)
		k--
	}
	slices.Sort(sc.Forget)
	// Half the schedules also exercise the concurrent-unlearning
	// service: a commit pass begun mid-training that chases the live
	// tip and must land bit-identical to stop-the-world.
	if len(sc.Forget) > 0 && r.Bernoulli(0.5) {
		sc.Overlap = 1 + r.IntN(sc.Rounds)
	}
	if err := sc.Validate(); err != nil {
		// The generator must stay inside its own grammar.
		panic(fmt.Sprintf("simtest: generated invalid scenario from seed %d: %v", seed, err))
	}
	return sc
}

// appendUnique appends v unless present.
func appendUnique(s []int, v int) []int {
	if slices.Contains(s, v) {
		return s
	}
	return append(s, v)
}
