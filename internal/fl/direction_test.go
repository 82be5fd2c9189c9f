package fl

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"fuiov/internal/history"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
	"fuiov/internal/sign"
)

// expandOracle is the composition AddDirection replaced, kept as the
// reference the packed path is compared against: expand the direction
// with the lookup table, multiply by the scale (the old wire reader),
// and let Add re-derive the history direction with sign.Compress.
func expandOracle(d *sign.Direction, scale float64) []float64 {
	g := make([]float64, d.Len())
	d.DenseInto(g)
	if scale != 1 {
		for i := range g {
			g[i] *= scale
		}
	}
	return g
}

// dirDelta is the store threshold of the direction tests.
const dirDelta = 1e-6

// dirEngine builds an externally driven engine over a dim-parameter
// model (dim ≥ 2) with nClients registered vehicles and a history store
// at dirDelta: the buffering aggregator when shards is 0, otherwise
// streaming over that many shards.
func dirEngine(tb testing.TB, dim, nClients, shards int) (*Simulation, *history.Store) {
	tb.Helper()
	net := nn.NewMLP(dim-1, 1)
	net.Init(rng.New(7))
	if net.NumParams() != dim {
		tb.Fatalf("template has %d params, want %d", net.NumParams(), dim)
	}
	clients := make([]*Client, nClients)
	for i := range clients {
		clients[i] = &Client{ID: history.ClientID(i)}
	}
	store, err := history.NewStore(dim, dirDelta)
	if err != nil {
		tb.Fatal(err)
	}
	sim, err := NewSimulation(net, clients, Config{
		LearningRate: 0.1, Seed: 7, Store: store,
		Streaming: shards > 0, StreamShards: shards,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sim, store
}

// synthDirection draws a ternary direction with all three codes present.
func synthDirection(tb testing.TB, dim int, seed uint64) *sign.Direction {
	tb.Helper()
	r := rng.New(seed)
	g := make([]float64, dim)
	for i := range g {
		g[i] = r.Normal()
	}
	d, err := sign.Compress(g, 0.5)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// requireSameEngine fails unless the two engines serve the same model
// bits and their stores serialise to the same bytes.
func requireSameEngine(tb testing.TB, what string, got, want *Simulation, gotStore, wantStore *history.Store) {
	tb.Helper()
	if got.Round() != want.Round() {
		tb.Fatalf("%s: round clock %d, oracle %d", what, got.Round(), want.Round())
	}
	g, w := got.Params(), want.Params()
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			tb.Fatalf("%s: parameter %d = %v, oracle %v", what, i, g[i], w[i])
		}
	}
	var gb, wb bytes.Buffer
	if err := gotStore.Save(&gb); err != nil {
		tb.Fatal(err)
	}
	if err := wantStore.Save(&wb); err != nil {
		tb.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		tb.Fatalf("%s: store snapshots differ (%d vs %d bytes)", what, gb.Len(), wb.Len())
	}
}

// TestAddDirectionMatchesAdd is the licence for the packed path: over
// three committed rounds, feeding (d, scale, w) through AddDirection
// leaves the model bits and the Store.Save bytes that feeding
// Add(expand(d)·scale, w) leaves — in barrier mode and streaming over
// one and three shards, at scales above, at and below 1 and one at or
// under δ (where the history direction is not d and the engine must
// fall back), on a dimension that is not a multiple of 4.
func TestAddDirectionMatchesAdd(t *testing.T) {
	const dim, nClients, rounds = 17, 5, 3
	for _, shards := range []int{0, 1, 3} {
		for _, scale := range []float64{1, 0.25, 3, 1e-7} {
			name := fmt.Sprintf("shards=%d/scale=%v", shards, scale)
			packed, packedStore := dirEngine(t, dim, nClients, shards)
			oracle, oracleStore := dirEngine(t, dim, nClients, shards)
			for r := 0; r < rounds; r++ {
				prs, err := packed.NewRoundStream()
				if err != nil {
					t.Fatal(err)
				}
				ors, err := oracle.NewRoundStream()
				if err != nil {
					t.Fatal(err)
				}
				// Descending IDs: the barrier must not care, a shard folds
				// in the same order on both sides.
				for i := nClients - 1; i >= 0; i-- {
					id := history.ClientID(i)
					d := synthDirection(t, dim, rng.Mix(uint64(r), uint64(i)))
					w := float64(1 + (i+r)%4)
					if err := prs.AddDirection(id, d, scale, w); err != nil {
						t.Fatalf("%s: AddDirection: %v", name, err)
					}
					if err := ors.Add(id, expandOracle(d, scale), w); err != nil {
						t.Fatalf("%s: Add: %v", name, err)
					}
					if scale > dirDelta && prs.dirs[id] != d {
						t.Fatalf("%s: round keeps a copy of client %d's direction, want the upload's own", name, id)
					}
				}
				if err := packed.SubmitRoundStream(prs, nClients); err != nil {
					t.Fatal(err)
				}
				if err := oracle.SubmitRoundStream(ors, nClients); err != nil {
					t.Fatal(err)
				}
				requireSameEngine(t, fmt.Sprintf("%s round %d", name, r), packed, oracle, packedStore, oracleStore)
			}
		}
	}
}

// TestAddDirectionErrors: a packed upload is refused for exactly what a
// dense one is, with the same sentinels, plus a scale no aggregate
// survives; a refused upload leaves the round as it was.
func TestAddDirectionErrors(t *testing.T) {
	const dim, nClients = 17, 3
	for _, shards := range []int{0, 2} {
		sim, store := dirEngine(t, dim, nClients, shards)
		rs, err := sim.NewRoundStream()
		if err != nil {
			t.Fatal(err)
		}
		d := synthDirection(t, dim, 1)
		if err := rs.AddDirection(0, d, 1, 2); err != nil {
			t.Fatal(err)
		}
		if err := rs.AddDirection(0, d, 1, 2); !errors.Is(err, ErrDuplicateUpload) {
			t.Errorf("shards=%d: duplicate → %v, want ErrDuplicateUpload", shards, err)
		}
		if err := rs.AddDirection(99, d, 1, 2); !errors.Is(err, ErrUnknownClient) {
			t.Errorf("shards=%d: unknown client → %v, want ErrUnknownClient", shards, err)
		}
		if err := rs.AddDirection(1, synthDirection(t, dim+1, 1), 1, 2); err == nil {
			t.Errorf("shards=%d: wrong dimension accepted", shards)
		}
		if err := rs.AddDirection(1, nil, 1, 2); err == nil {
			t.Errorf("shards=%d: nil direction accepted", shards)
		}
		for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
			if err := rs.AddDirection(1, d, 1, w); err == nil {
				t.Errorf("shards=%d: weight %v accepted", shards, w)
			}
		}
		for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if err := rs.AddDirection(1, d, s, 2); err == nil {
				t.Errorf("shards=%d: scale %v accepted", shards, s)
			}
		}
		// None of the refusals took client 1's responder bit.
		if err := rs.AddDirection(1, d, 1, 2); err != nil {
			t.Errorf("shards=%d: honest upload after refusals: %v", shards, err)
		}
		if rs.Folded() != 2 {
			t.Errorf("shards=%d: folded %d uploads, want 2", shards, rs.Folded())
		}
		if err := sim.SubmitRoundStream(rs, nClients); err != nil {
			t.Fatal(err)
		}
		if err := rs.AddDirection(2, d, 1, 2); err == nil {
			t.Errorf("shards=%d: upload into a closed stream accepted", shards)
		}
		if store.Rounds() != 1 || sim.Round() != 1 {
			t.Errorf("shards=%d: store at %d, clock at %d, want 1 and 1", shards, store.Rounds(), sim.Round())
		}
	}
}

// FuzzAddDirection is the differential form of the test above: whatever
// packed bytes, dimension, scale, weight and shard count arrive, the
// packed path and the expand→Add→recompress oracle agree on whether
// the upload is accepted and, when it is, on every bit of the committed
// model and of the store snapshot.
func FuzzAddDirection(f *testing.F) {
	f.Add([]byte{0x19, 0x86, 0x01}, uint8(10), 0.5, 3.0, uint8(0))
	f.Fuzz(func(t *testing.T, packed []byte, dimByte uint8, scale, weight float64, shardByte uint8) {
		const engineDim = 10 // not a multiple of 4: the payload has a tail byte
		n := int(dimByte % 24)
		shards := int(shardByte % 4) // 0 = barrier
		d, err := sign.FromPacked(n, packed)
		if err != nil {
			return
		}
		// The direction the oracle sees is rebuilt from a copy, so the
		// two engines share no bytes.
		od, err := sign.FromPacked(n, bytes.Clone(packed))
		if err != nil {
			t.Fatal(err)
		}
		got, gotStore := dirEngine(t, engineDim, 2, shards)
		want, wantStore := dirEngine(t, engineDim, 2, shards)
		gs, err := got.NewRoundStream()
		if err != nil {
			t.Fatal(err)
		}
		ws, err := want.NewRoundStream()
		if err != nil {
			t.Fatal(err)
		}
		// An honest neighbour first, so the fuzzed upload folds into a
		// non-zero accumulator.
		nb := synthDirection(t, engineDim, 3)
		if err := gs.AddDirection(0, nb, 0.5, 2); err != nil {
			t.Fatal(err)
		}
		if err := ws.Add(0, expandOracle(nb, 0.5), 2); err != nil {
			t.Fatal(err)
		}
		gotErr := gs.AddDirection(1, d, scale, weight)
		var wantErr error
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			wantErr = errors.New("scale is not finite") // the one refusal Add has no counterpart for
		} else {
			wantErr = ws.Add(1, expandOracle(od, scale), weight)
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("AddDirection → %v, oracle → %v", gotErr, wantErr)
		}
		if gotErr != nil {
			if gs.Folded() != 1 {
				t.Fatalf("a refused upload was folded: %d", gs.Folded())
			}
			return
		}
		gotErr = got.SubmitRoundStream(gs, 2)
		wantErr = want.SubmitRoundStream(ws, 2)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("commit → %v, oracle → %v", gotErr, wantErr)
		}
		requireSameEngine(t, "fuzzed round", got, want, gotStore, wantStore)
	})
}
