package fl

import "fuiov/internal/rng"

// Sampler draws seeded cohorts of K out of N clients — the scale
// benchmark's model of a production RSU that samples cohorts of the
// paper's size (100 vehicles) out of millions registered. The round
// engine itself does not sample: its Schedule alone decides who is in
// a round. The draw is a partial Fisher–Yates shuffle seeded by
// (Seed, round), so the cohort is a pure function of the round index:
// re-running a sweep reproduces the same cohorts.
//
// Memory is one reusable int32 index array of length N (4 bytes per
// registered client — registry-scale, not gradient-scale) and zero
// per-round allocation after the first call (see DESIGN.md §15).
type Sampler struct {
	// Seed drives the per-round draws.
	Seed uint64
	// K is the cohort size per round. Rounds with fewer than K
	// eligible clients take everyone.
	K int

	// idx is the reusable index array (identity-initialised each
	// draw, partially shuffled in place).
	idx []int32
}

// Cohort returns the round-t cohort as indices into the eligible
// list [0, n): the first K positions of a seeded partial shuffle,
// in draw order. The returned slice aliases the sampler's reusable
// buffer — it is valid until the next Cohort call and must not be
// retained. When n <= K every index is returned (in identity order).
func (sm *Sampler) Cohort(t int, n int) []int32 {
	if cap(sm.idx) < n {
		sm.idx = make([]int32, n)
	}
	sm.idx = sm.idx[:n]
	for i := range sm.idx {
		sm.idx[i] = int32(i)
	}
	if n <= sm.K {
		return sm.idx
	}
	r := rng.New(rng.Mix(sm.Seed, 0xc0_4057, uint64(t)))
	for i := 0; i < sm.K; i++ {
		j := i + r.IntN(n-i)
		sm.idx[i], sm.idx[j] = sm.idx[j], sm.idx[i]
	}
	return sm.idx[:sm.K]
}
