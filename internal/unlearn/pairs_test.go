package unlearn

import (
	"context"
	"math"
	"runtime"
	"testing"

	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/lbfgs"
	"fuiov/internal/rng"
	"fuiov/internal/tensor"
)

// TestRecoveryPassAllocBytes pins a whole pass — bootstrap, several
// pair refreshes, the range-split aggregate — not just its steady
// round. The pass shares each Δw column among its clients and recycles
// released pair storage, so a client needs est plus s+1 Δg vectors — up
// to 2s while a failed Build keeps an older approximation alive, which
// random gradients make common — and the pass a few Δw columns and
// pass-wide vectors: under (clients·(2+s+1) + (s+1))·dim float64s and a
// small constant for the per-build matrices and maps. Cloning every
// window on every Build and copying every push costs several times
// that.
func TestRecoveryPassAllocBytes(t *testing.T) {
	const dim, clients, s = 16384, 16, 2
	store := randomStore(t, 41, dim, 30, clients+1, 3)
	u, err := New(store, Config{LearningRate: 0.02, Parallelism: 2, RefreshEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := u.UnlearnContext(ctx, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.BootstrappedClients != clients || res.PairRefreshes < 5 {
		t.Fatalf("bootstrapped %d clients, %d refreshes: the pass does not exercise what it pins",
			res.BootstrappedClients, res.PairRefreshes)
	}
	const small = 256 << 10
	budget := uint64((clients*(2+s+1)+(s+1))*dim*8 + small)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("pass allocated %d KB, budget %d KB", got>>10, budget>>10)
	if got > budget {
		t.Errorf("pass allocated %d bytes, budget %d", got, budget)
	}
}

// TestFailedRefreshKeepsPreviousApprox: in a refresh round where one
// client's new pair has no positive curvature, that client's Build
// fails and it keeps estimating from its previous approximation while
// every other client refreshes — and the pass equals a reference
// recovery that clones every pair window, exactly.
func TestFailedRefreshKeepsPreviousApprox(t *testing.T) {
	const (
		dim, clients, f = 12289, 13, 3
		refreshEvery    = 4
		bad             = f + 2*refreshEvery // the second refresh
		rounds          = bad + 6
		victim          = history.ClientID(5)
	)
	cfg := Config{LearningRate: 0.02, Parallelism: 2, RefreshEvery: refreshEvery}
	r := rng.New(8)
	store, err := history.NewStore(dim, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	// Client c's gradient is w − target_c: a quadratic loss, so every
	// pair has positive curvature and every Build but the victim's
	// succeeds. The targets sit near the start of the model's random
	// walk, so directions keep flipping sign as it wanders.
	model := make([]float64, dim)
	for i := range model {
		model[i] = r.Normal()
	}
	targets := make([][]float64, clients)
	for c := range targets {
		targets[c] = make([]float64, dim)
		for i := range targets[c] {
			targets[c][i] = model[i] + r.NormalScaled(0, 0.02)
		}
	}
	for round := 0; round < rounds; round++ {
		grads := map[history.ClientID][]float64{}
		for c := 0; c < clients; c++ {
			if c == 1 && round < f {
				continue // client 1, the forgotten one, joins at f
			}
			grads[history.ClientID(c)] = tensor.Sub(model, targets[c])
		}
		if round == bad {
			// The victim's direction agrees in sign with this round's
			// Δw = w̄ − w everywhere. With the clip at 1, every element
			// of est − raw then has the opposite sign to Δw or is zero:
			// its refresh pair has no positive curvature.
			u, err := New(store, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wF, jf, err := u.Backtrack(1)
			if err != nil {
				t.Fatal(err)
			}
			p := u.newPass(wF, jf, []history.ClientID{1})
			if err := p.runTo(context.Background(), round); err != nil {
				t.Fatal(err)
			}
			g := grads[victim]
			for i := range g {
				g[i] = math.Copysign(0.5, p.wBar[i]-model[i])
			}
		}
		if err := store.RecordRound(round, model, grads, nil); err != nil {
			t.Fatal(err)
		}
		for i := range model {
			model[i] += r.NormalScaled(0, 0.01)
		}
	}

	u, err := New(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wF, jf, err := u.Backtrack(1)
	if err != nil {
		t.Fatal(err)
	}
	p := u.newPass(wF, jf, []history.ClientID{1})
	ctx := context.Background()
	if err := p.runTo(ctx, bad); err != nil {
		t.Fatal(err)
	}
	prev := map[history.ClientID]*lbfgs.Approx{}
	for id, st := range p.states {
		if st.approx == nil {
			t.Fatalf("client %d has no approximation before round %d", id, bad)
		}
		prev[id] = st.approx
	}
	if err := p.runTo(ctx, bad+1); err != nil {
		t.Fatal(err)
	}
	for id, st := range p.states {
		if kept := st.approx == prev[id]; kept != (id == victim) {
			t.Errorf("client %d: approximation kept = %v across the refresh, want %v", id, kept, id == victim)
		}
	}
	if err := p.runTo(ctx, rounds); err != nil {
		t.Fatal(err)
	}
	got := p.finish()

	params, _, refreshes, fallbacks := refRecover(t, store, cfg, 1)
	if got.PairRefreshes != refreshes || got.DegenerateFallbacks != fallbacks {
		t.Errorf("refreshes %d, fallbacks %d; reference %d, %d",
			got.PairRefreshes, got.DegenerateFallbacks, refreshes, fallbacks)
	}
	if i := sameBits(got.Params, params); i >= 0 {
		t.Errorf("Params[%d] = %v, reference %v", i, got.Params[i], params[i])
	}
}

// refRecover is the recovery as an oracle that clones: every pair is
// copied into a per-client window, every approximation built from a
// fresh clone of it (refApprox, the pass-by-pass product), and the
// aggregate is FedAvg.Aggregate. Elementwise clip, bootstrap from
// stored history only. trajectory[t−F] is w̄ after the round-t update.
func refRecover(t *testing.T, store history.Reader, cfg Config, forgotten history.ClientID) (params []float64, trajectory [][]float64, refreshes, fallbacks int) {
	t.Helper()
	cfg = cfg.withDefaults()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	f, err := store.JoinRound(forgotten)
	must(err)
	wF, err := store.Model(f)
	must(err)
	dim, s := store.Dim(), cfg.PairSize
	dense := func(round int, id history.ClientID) ([]float64, bool) {
		d, err := store.Direction(round, id)
		if err != nil {
			return nil, false
		}
		g := make([]float64, dim)
		d.DenseInto(g)
		return g, true
	}
	type client struct {
		st     *refState
		dW, dG [][]float64
	}
	push := func(c *client, dw, dg []float64) {
		c.dW = append(c.dW, tensor.CloneVec(dw))
		c.dG = append(c.dG, tensor.CloneVec(dg))
		if len(c.dW) > s {
			c.dW, c.dG = c.dW[1:], c.dG[1:]
		}
	}
	build := func(c *client) bool {
		dW, dG := make([][]float64, len(c.dW)), make([][]float64, len(c.dG))
		for i := range c.dW {
			dW[i], dG[i] = tensor.CloneVec(c.dW[i]), tensor.CloneVec(c.dG[i])
		}
		a, err := newRefApprox(dW, dG)
		if err != nil {
			return false
		}
		c.st.approx = a
		return true
	}
	clients := map[history.ClientID]*client{}
	stateFor := func(id history.ClientID) *client {
		if c, ok := clients[id]; ok {
			return c
		}
		c := &client{st: &refState{raw: make([]float64, dim), est: make([]float64, dim), hv: make([]float64, dim)}}
		clients[id] = c
		if gF, ok := dense(f, id); ok {
			for j := max(0, f-s); j < f; j++ {
				wJ, err := store.Model(j)
				gJ, ok := dense(j, id)
				if err == nil && ok {
					push(c, tensor.Sub(wJ, wF), tensor.Sub(gJ, gF))
				}
			}
			if len(c.dW) > 0 {
				build(c)
			}
		}
		return c
	}

	wBar := tensor.CloneVec(wF)
	for round := f; round < store.Rounds(); round++ {
		participants, err := store.Participants(round)
		must(err)
		wT, err := store.Model(round)
		must(err)
		deltaW := tensor.Sub(wBar, wT)
		refresh := round > f && (round-f)%cfg.RefreshEvery == 0
		grads := map[history.ClientID][]float64{}
		weights := map[history.ClientID]float64{}
		refreshed := false
		for _, id := range participants {
			if id == forgotten {
				continue
			}
			c := stateFor(id)
			dir, err := store.Direction(round, id)
			must(err)
			if c.st.estimate(dir, deltaW, refresh, cfg.ClipThreshold, cfg.ClipMode).fallback {
				fallbacks++
			}
			grads[id] = tensor.CloneVec(c.st.est)
			weights[id], err = store.Weight(round, id)
			must(err)
			if refresh {
				push(c, deltaW, tensor.Sub(c.st.est, c.st.raw))
				refreshed = build(c) || refreshed
			}
		}
		if refreshed {
			refreshes++
		}
		agg, err := fl.FedAvg{}.Aggregate(grads, weights)
		must(err)
		tensor.AxpyInPlace(wBar, -cfg.LearningRate, agg)
		trajectory = append(trajectory, tensor.CloneVec(wBar))
	}
	return wBar, trajectory, refreshes, fallbacks
}
