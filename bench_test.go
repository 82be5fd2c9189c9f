package fuiov_test

// Benchmark harness: one benchmark per table and figure of the paper
// (DESIGN.md §5). Each benchmark regenerates its experiment and logs
// the same rows the paper reports, so
//
//	go test -bench=. -benchmem
//
// both measures the cost of the pipeline and prints the reproduced
// results. By default experiments run at CI scale; set
//
//	FUIOV_SCALE=paper go test -bench=. -benchtime=1x -timeout=2h
//
// for the paper-scale configuration (100 vehicles, 100 rounds, CNNs) —
// about 20 s per training run on a 2-core machine.
//
// Micro-benchmarks for the core primitives (direction compression,
// L-BFGS Hessian-vector products, one federated round, one recovery
// round) follow the experiment benchmarks.

import (
	"context"
	"os"
	"testing"

	"fuiov/internal/dataset"
	"fuiov/internal/experiments"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/lbfgs"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
	"fuiov/internal/sign"
	"fuiov/internal/unlearn"
)

const benchSeed = 42

func benchScale() experiments.Scale {
	if os.Getenv("FUIOV_SCALE") == "paper" {
		return experiments.PaperScale()
	}
	return experiments.CIScale()
}

// BenchmarkTable1 regenerates Table I (accuracy of Retraining,
// FedRecover, FedRecovery and Ours on both datasets).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(context.Background(), benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("\n%s", experiments.FormatTable1(rows))
		}
	}
}

// BenchmarkFigure1 regenerates Fig. 1 (attack success rate before
// unlearning, after forgetting, after recovery).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure1(context.Background(), benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("\n%s", experiments.FormatFigure1(rows))
		}
	}
}

// BenchmarkFigure2 regenerates Fig. 2 (accuracy vs clip threshold L).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure2(context.Background(), benchScale(), benchSeed, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("\n%s", experiments.FormatSweep(
				"Fig. 2 — accuracy vs clip threshold L", "L", points))
		}
	}
}

// BenchmarkFigure3 regenerates Fig. 3 (accuracy vs direction
// threshold δ).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure3(context.Background(), benchScale(), benchSeed, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("\n%s", experiments.FormatSweep(
				"Fig. 3 — accuracy vs direction threshold δ", "delta", points))
		}
	}
}

// BenchmarkStorage regenerates the §I/§VI storage-savings claim.
func BenchmarkStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Storage(context.Background(), benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("\n%s", experiments.FormatStorage(rows))
			b.ReportMetric(100*rows[0].MeasuredSavings, "%saved")
		}
	}
}

// BenchmarkCostTable regenerates the recovery cost comparison (E6 in
// DESIGN.md): client compute/communication and server gradient
// storage per method.
func BenchmarkCostTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CostTable(context.Background(), benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("\n%s", experiments.FormatCost(rows))
		}
	}
}

// BenchmarkAblationClipping regenerates ablation A1 (clipping mode).
func BenchmarkAblationClipping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationClipping(context.Background(), benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("\n%s", experiments.FormatAblation("A1 — clipping mode", rows))
		}
	}
}

// BenchmarkAblationRefresh regenerates ablation A2 (pair refresh
// period).
func BenchmarkAblationRefresh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationRefresh(context.Background(), benchScale(), benchSeed, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("\n%s", experiments.FormatAblation("A2 — pair refresh period", rows))
		}
	}
}

// BenchmarkAblationBootstrap regenerates ablation A3 (pre-join
// L-BFGS bootstrap).
func BenchmarkAblationBootstrap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationBootstrap(context.Background(), benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("\n%s", experiments.FormatAblation("A3 — L-BFGS bootstrap", rows))
		}
	}
}

// BenchmarkAblationHeterogeneity regenerates ablation A4 (non-IID
// client data).
func BenchmarkAblationHeterogeneity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationHeterogeneity(context.Background(), benchScale(), benchSeed, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("\n%s", experiments.FormatAblation("A4 — client heterogeneity", rows))
		}
	}
}

// ---- Micro-benchmarks ----

// BenchmarkSignCompress measures 2-bit direction compression of one
// model-sized gradient.
func BenchmarkSignCompress(b *testing.B) {
	r := rng.New(1)
	g := make([]float64, 100_000)
	for i := range g {
		g[i] = r.NormalScaled(0, 0.01)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sign.Compress(g, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(g) * 8))
}

// BenchmarkSignDecompress measures direction expansion.
func BenchmarkSignDecompress(b *testing.B) {
	r := rng.New(2)
	g := make([]float64, 100_000)
	for i := range g {
		g[i] = r.NormalScaled(0, 0.01)
	}
	d, err := sign.Compress(g, 1e-6)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, len(g))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.DenseInto(dst)
	}
}

// BenchmarkLBFGSHVP measures one compact Hessian-vector product at a
// realistic model dimension.
func BenchmarkLBFGSHVP(b *testing.B) {
	r := rng.New(3)
	const dim = 10_000
	mk := func() []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = r.Normal()
		}
		return v
	}
	dW := [][]float64{mk(), mk()}
	dG := make([][]float64, 2)
	for i := range dW {
		dG[i] = make([]float64, dim)
		for j := range dG[i] {
			dG[i][j] = 2*dW[i][j] + 0.1*r.Normal()
		}
	}
	approx, err := lbfgs.New(dW, dG)
	if err != nil {
		b.Fatal(err)
	}
	v := mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := approx.HVP(v); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFederation builds a small trained federation for round-level
// benchmarks.
func benchFederation(b *testing.B) (*fl.Simulation, *history.Store) {
	b.Helper()
	d := dataset.SynthDigits(dataset.DefaultDigits(600, 7))
	r := rng.New(7)
	train, _ := d.Split(r, 0.9)
	shards, err := dataset.PartitionIID(train, r, 10)
	if err != nil {
		b.Fatal(err)
	}
	clients := make([]*fl.Client, len(shards))
	for i := range clients {
		clients[i] = &fl.Client{ID: history.ClientID(i), Data: shards[i], BatchSize: 32}
	}
	net := nn.NewDigitsCNN(12, 10)
	net.Init(r.Split(1))
	store, err := history.NewStore(net.NumParams(), 1e-2)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := fl.NewSimulation(net, clients, fl.Config{
		LearningRate: 0.05, Seed: 7, Store: store,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sim, store
}

// BenchmarkFederatedRound measures one synchronous CNN training round
// (10 clients, batch 32) including history recording.
func BenchmarkFederatedRound(b *testing.B) {
	sim, _ := benchFederation(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.RunRoundContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnlearn measures a complete backtrack + recovery over a
// 30-round history (10 clients, CNN).
func BenchmarkUnlearn(b *testing.B) {
	sim, store := benchFederation(b)
	if err := sim.RunContext(context.Background(), 30); err != nil {
		b.Fatal(err)
	}
	u, err := unlearn.New(store, unlearn.Config{LearningRate: 0.05, ClipThreshold: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.UnlearnContext(context.Background(), 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoveryRound measures the recovery hot loop: one complete
// backtrack + recovery (≈27 recovered rounds × 9 remaining clients)
// over a 30-round CNN history, with allocation accounting. The
// per-client-round estimate cost is allocs/op divided by the
// client-round count logged below.
func BenchmarkRecoveryRound(b *testing.B) {
	sim, store := benchFederation(b)
	if err := sim.RunContext(context.Background(), 30); err != nil {
		b.Fatal(err)
	}
	u, err := unlearn.New(store, unlearn.Config{LearningRate: 0.05, ClipThreshold: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := u.UnlearnContext(context.Background(), 3)
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.RecoveredRounds
	}
	b.ReportMetric(float64(rounds), "rounds/op")
}

// BenchmarkHistoryRecord measures recording one round of 100 client
// gradients (3k-parameter model) with direction compression.
func BenchmarkHistoryRecord(b *testing.B) {
	const dim = 3000
	r := rng.New(9)
	grads := make(map[history.ClientID][]float64, 100)
	for c := 0; c < 100; c++ {
		g := make([]float64, dim)
		for i := range g {
			g[i] = r.NormalScaled(0, 0.01)
		}
		grads[history.ClientID(c)] = g
	}
	model := make([]float64, dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store, err := history.NewStore(dim, 1e-6)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.RecordRound(0, model, grads, nil); err != nil {
			b.Fatal(err)
		}
	}
}
