package fl

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"

	"fuiov/internal/faults"
	"fuiov/internal/history"
	"fuiov/internal/nn"
	"fuiov/internal/telemetry"
	"fuiov/internal/tensor"
)

// RSA implements the Byzantine-Robust Stochastic Aggregation protocol
// of Li et al. (AAAI'19), described in §III-C of the paper as the
// origin of its direction-only storage idea. Unlike FedAvg, every
// client keeps a personal model mᵢ and the server model m₀ moves by
// sign consensus:
//
//	m₀ ← m₀ − η·(∇f₀(m₀) + λ·Σᵢ sign(m₀ − mᵢ))        (eq. 3)
//	mᵢ ← mᵢ − η·(∇L(mᵢ, ξᵢ) + λ·sign(mᵢ − m₀))        (eq. 4)
//
// f₀ is a server-side regulariser; we use the standard L2 term
// f₀(m) = (ρ/2)·‖m‖², so ∇f₀(m₀) = ρ·m₀ (ρ may be zero).
//
// Because only element signs of (m₀ − mᵢ) influence the server, a
// Byzantine client's per-round, per-coordinate influence is bounded by
// ±λη regardless of what it sends — the robustness property the paper
// leans on when storing only directions.

// RSAConfig parameterises an RSA simulation.
type RSAConfig struct {
	// LearningRate is η in eq. 3–4.
	LearningRate float64
	// Lambda is the consensus penalty λ (> 0).
	Lambda float64
	// Rho is the server regulariser coefficient ρ (≥ 0).
	Rho float64
	// Seed drives mini-batch sampling.
	Seed uint64
	// Parallelism bounds concurrent client updates (0 = GOMAXPROCS).
	Parallelism int
	// Telemetry, when non-nil, receives per-phase timings and round
	// events. Nil disables instrumentation at ~zero cost.
	Telemetry *telemetry.Registry
	// Faults, when non-nil, injects per-attempt client fault outcomes
	// into local update computations (see Config.Faults).
	Faults faults.Injector
	// FaultPolicy, when non-nil, turns on graceful degradation: failed
	// clients keep their previous personal model for the round, the
	// server's sign consensus (eq. 3) sums only over this round's
	// responders, and the round commits as long as the quorum holds.
	// When nil any client failure aborts the round.
	FaultPolicy *FaultPolicy
}

// rsaMetrics caches telemetry handles; all fields are nil (no-op)
// when telemetry is disabled.
type rsaMetrics struct {
	round     *telemetry.Timer
	local     *telemetry.Timer
	consensus *telemetry.Timer
	rounds    *telemetry.Counter
	faults    faultMetrics
}

func newRSAMetrics(r *telemetry.Registry) rsaMetrics {
	return rsaMetrics{
		round:     r.Timer(telemetry.RSARound),
		local:     r.Timer(telemetry.RSARoundLocal),
		consensus: r.Timer(telemetry.RSARoundConsensus),
		rounds:    r.Counter(telemetry.RSARounds),
		faults:    newFaultMetrics(r),
	}
}

func (c RSAConfig) validate() error {
	if c.LearningRate <= 0 {
		return fmt.Errorf("fl: rsa learning rate %v", c.LearningRate)
	}
	if c.Lambda <= 0 {
		return fmt.Errorf("fl: rsa lambda %v", c.Lambda)
	}
	if c.Rho < 0 {
		return fmt.Errorf("fl: rsa rho %v", c.Rho)
	}
	return c.FaultPolicy.Validate()
}

// RSASimulation runs the RSA protocol over a fixed client population.
type RSASimulation struct {
	cfg      RSAConfig
	template *nn.Network
	server   []float64
	locals   map[history.ClientID][]float64
	clients  []*Client
	round    int
	met      rsaMetrics
	fan      fanOut
}

// NewRSASimulation initialises server and client models from the
// template's current parameters.
func NewRSASimulation(template *nn.Network, clients []*Client, cfg RSAConfig) (*RSASimulation, error) {
	if template == nil {
		return nil, fmt.Errorf("fl: nil template network")
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("fl: no clients")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	init := template.ParamVector()
	locals := make(map[history.ClientID][]float64, len(clients))
	for _, c := range clients {
		if c == nil || c.Data == nil || c.Data.Len() == 0 {
			return nil, fmt.Errorf("fl: rsa requires every client to hold data")
		}
		if _, dup := locals[c.ID]; dup {
			return nil, fmt.Errorf("fl: duplicate client ID %d", c.ID)
		}
		locals[c.ID] = tensor.CloneVec(init)
	}
	met := newRSAMetrics(cfg.Telemetry)
	return &RSASimulation{
		cfg:      cfg,
		template: template,
		server:   tensor.CloneVec(init),
		locals:   locals,
		clients:  clients,
		met:      met,
		fan: fanOut{
			sem:    make(chan struct{}, cfg.Parallelism),
			faults: cfg.Faults,
			policy: cfg.FaultPolicy,
			seed:   cfg.Seed,
			met:    met.faults,
			scope:  "rsa round",
		},
	}, nil
}

// Round returns the next round index.
func (s *RSASimulation) Round() int { return s.round }

// ServerParams returns a copy of the server model m₀.
func (s *RSASimulation) ServerParams() []float64 { return tensor.CloneVec(s.server) }

// LocalParams returns a copy of client id's personal model.
func (s *RSASimulation) LocalParams(id history.ClientID) ([]float64, error) {
	m, ok := s.locals[id]
	if !ok {
		return nil, fmt.Errorf("%w: rsa client %d", ErrUnknownClient, id)
	}
	return tensor.CloneVec(m), nil
}

// RunRoundContext executes one synchronous RSA round: clients take a
// local step (eq. 4) against the current server model, then the server
// aggregates sign consensus (eq. 3). Failure handling follows
// RSAConfig.FaultPolicy: strict abort without one, naming every failing
// client; retry + quorum degradation with one (absent clients keep
// their personal model and are left out of the round's consensus sum).
// If ctx is cancelled before the round commits, the round is abandoned
// — no model moves, the clock does not advance — and the context's
// error returned.
func (s *RSASimulation) RunRoundContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	roundSpan := s.met.round.Start()
	t := s.round
	localSpan := s.met.local.Start()
	res := make([]callResult, len(s.clients))
	err := s.fan.call(ctx, t, s.clients, res, func(c *Client) ([]float64, error) {
		return c.ComputeGradient(s.template, s.locals[c.ID], s.cfg.Seed, t)
	})
	if err != nil {
		return err
	}
	// Eq. 4, written over each responder's gradient: its next personal
	// model, held back until the server has stepped.
	responders := 0
	for i, c := range s.clients {
		if res[i].err != nil {
			continue
		}
		responders++
		local, g := s.locals[c.ID], res[i].grad
		for j := range g {
			step := g[j] + s.cfg.Lambda*signOf(local[j]-s.server[j])
			g[j] = local[j] - s.cfg.LearningRate*step
		}
	}
	localDur := localSpan.End()
	absent := len(s.clients) - responders
	if p := s.cfg.FaultPolicy; p != nil {
		if need := p.QuorumCount(len(s.clients)); responders < need {
			s.met.faults.quorumShortfalls.Inc()
			return fmt.Errorf("fl: rsa round %d: %w: %d of %d clients responded, quorum %d",
				t, ErrQuorumNotReached, responders, len(s.clients), need)
		}
		if absent > 0 {
			s.met.faults.absentees.Add(int64(absent))
			s.met.faults.degradedRounds.Inc()
		}
	}
	// Server step (eq. 3) uses the PRE-update local models, matching
	// the synchronous protocol. Under a fault policy the sign sum
	// covers only this round's responders — the server cannot hear
	// from absent clients — which keeps the per-round Byzantine
	// influence bound of ±λη per responder intact.
	consensusSpan := s.met.consensus.Start()
	update := make([]float64, len(s.server))
	for i, c := range s.clients {
		if res[i].err != nil {
			continue
		}
		local := s.locals[c.ID]
		for j := range update {
			update[j] += signOf(s.server[j] - local[j])
		}
	}
	for j := range s.server {
		s.server[j] -= s.cfg.LearningRate * (s.cfg.Rho*s.server[j] + s.cfg.Lambda*update[j])
	}
	// Commit client updates (absent clients keep their stale model).
	for i, c := range s.clients {
		if res[i].err == nil {
			s.locals[c.ID] = res[i].grad
		}
	}
	consensusDur := consensusSpan.End()
	s.round++
	s.met.rounds.Inc()
	total := roundSpan.End()
	if lg := s.cfg.Telemetry.Logger(); lg != nil {
		lg.LogAttrs(ctx, slog.LevelInfo, "round",
			slog.String("scope", "rsa"),
			slog.Int("round", t),
			slog.Int("clients", len(s.clients)),
			slog.Int("responders", responders),
			slog.Int("absent", absent),
			slog.Duration("local", localDur),
			slog.Duration("consensus", consensusDur),
			slog.Duration("total", total),
		)
	}
	return nil
}

// SkipRound advances the round clock without any model movement —
// server and client models are untouched. See Simulation.SkipRound:
// fault outcomes are deterministic per (client, round), so this is how
// a caller moves past a round doomed to ErrQuorumNotReached.
func (s *RSASimulation) SkipRound() {
	s.round++
	s.met.rounds.Inc()
	s.met.faults.skippedRounds.Inc()
}

// RunContext executes the given number of rounds, stopping early with
// the context's error if ctx is cancelled; the in-flight round is
// abandoned without moving any model.
func (s *RSASimulation) RunContext(ctx context.Context, rounds int) error {
	for i := 0; i < rounds; i++ {
		if err := s.RunRoundContext(ctx); err != nil {
			return err
		}
	}
	return nil
}

// ServerModel returns a clone of the template carrying the server
// parameters.
func (s *RSASimulation) ServerModel() *nn.Network {
	net := s.template.Clone()
	net.SetParamVector(s.server)
	return net
}

func signOf(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}
