package fl

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"fuiov/internal/history"
	"fuiov/internal/rng"
)

// aggSpecials are the gradient values a vector reduction is most
// likely to get wrong: NaNs (a signalling one among them), infinities,
// both zeros and subnormals.
var aggSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
	1e-3, -0.5, 3, 1e300, -1e300,
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
}

// fuzzDims are the dimensions FuzzAggregate draws from: 0–17 (every
// 4-lane tail), one tile and either side of it, and ingest_dense's
// model.
var fuzzDims = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
	aggTile - 1, aggTile, aggTile + 1, 34186}

// scalarFedAvg is the reduction every FedAvg path must reproduce: per
// element, the product w·g of each client in ids order added to a
// running sum that starts at +0, then one multiplication by 1/Σw, with
// Σw summed in ids order.
func scalarFedAvg(dim int, ids []history.ClientID, grads map[history.ClientID][]float64, weights map[history.ClientID]float64) ([]float64, error) {
	var total float64
	for _, id := range ids {
		total += weightOf(weights, id)
	}
	if total == 0 {
		return nil, fmt.Errorf("zero total weight")
	}
	out := make([]float64, dim)
	for _, id := range ids {
		w := weightOf(weights, id)
		for i, v := range grads[id] {
			out[i] += float64(w * v)
		}
	}
	inv := 1 / total
	for i := range out {
		out[i] *= inv
	}
	return out, nil
}

// FuzzAggregate holds every FedAvg reduction to scalarFedAvg, bit for
// bit: AggregateInto, AggregateRange over an arbitrary [lo, hi) (the
// rest of dst untouched), the barrier's range-split Resolve at
// parallelism 1–4 fed in a scrambled arrival order, and ShardedFedAvg
// at P = 1 folded in ascending ID order. raw is read as little-endian
// float64s and cycled to fill the gradients; wraw gives the weights
// (byte mod 7, some absent and so defaulted to 1, all zero possible).
// A NaN need only meet a NaN: Go leaves unspecified which operand's
// payload an addition propagates.
func FuzzAggregate(f *testing.F) {
	for i, dim := range fuzzDims {
		v := make([]float64, 3+i)
		for j := range v {
			v[j] = aggSpecials[(i+j)%len(aggSpecials)]
		}
		f.Add(floatBytes(v), uint8(i), uint8(16), uint8(i), uint16(dim/3), uint16(dim), []byte{1, 2, 3, 0, 5})
		f.Add([]byte(nil), uint8(i), uint8(1+i%5), uint8(2), uint16(1), uint16(dim/2+1), []byte{0, 6})
	}
	f.Fuzz(func(t *testing.T, raw []byte, dimSel, cohort, par uint8, loSel, spanSel uint16, wraw []byte) {
		dim := fuzzDims[int(dimSel)%len(fuzzDims)]
		clients := 1 + int(cohort)%16
		v := make([]float64, len(raw)/8)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		ids := make([]history.ClientID, clients)
		grads := make(map[history.ClientID][]float64, clients)
		weights := make(map[history.ClientID]float64, clients)
		for c := range ids {
			id := history.ClientID(2*c + 1)
			ids[c] = id
			g := make([]float64, dim)
			for i := range g {
				if len(v) == 0 {
					g[i] = math.Sin(float64(i*clients+c)) * 3
				} else {
					g[i] = v[(i+c*7)%len(v)]
				}
			}
			grads[id] = g
			if len(wraw) > 0 {
				if b := wraw[c%len(wraw)]; b%7 != 6 {
					weights[id] = float64(b % 7)
				}
			}
		}
		want, wantErr := scalarFedAvg(dim, ids, grads, weights)

		got := make([]float64, dim)
		err := FedAvg{}.AggregateInto(got, ids, grads, weights)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AggregateInto error %v, scalar loop %v", err, wantErr)
		}
		if wantErr != nil {
			return
		}
		sameBits(t, "AggregateInto", got, want)

		inv, err := FedAvg{}.InvTotal(dim, ids, grads, weights)
		if err != nil {
			t.Fatal(err)
		}
		lo := int(loSel) % (dim + 1)
		hi := lo + int(spanSel)%(dim-lo+1)
		const poison = -7.25
		for i := range got {
			got[i] = poison
		}
		FedAvg{}.AggregateRange(got, ids, grads, weights, inv, lo, hi)
		sameBits(t, fmt.Sprintf("AggregateRange [%d,%d)", lo, hi), got[lo:hi], want[lo:hi])
		for i, g := range got {
			if (i < lo || i >= hi) && g != poison {
				t.Fatalf("AggregateRange [%d,%d) wrote element %d", lo, hi, i)
			}
		}

		buf := &cohortBuffer{parallelism: 1 + int(par)%4}
		for k := range ids {
			id := ids[(k*5+3)%clients] // 5 is coprime to every cohort size but 5, 10 and 15
			if clients%5 == 0 {
				id = ids[clients-1-k]
			}
			if err := buf.Add(id, grads[id], weightOf(weights, id)); err != nil {
				t.Fatal(err)
			}
		}
		for i := range got {
			got[i] = poison
		}
		if err := buf.Resolve(got); err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("barrier Resolve at parallelism %d", buf.parallelism), got, want)

		if dim == 0 {
			return // NewShardedFedAvg refuses an empty model
		}
		sh, err := NewShardedFedAvg(dim, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if err := sh.Add(id, grads[id], weightOf(weights, id)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sh.Resolve(got); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "ShardedFedAvg P=1", got, want)
	})
}

// sameBits fails unless got and want agree bit for bit, except that a
// NaN need only meet a NaN.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d of %d = %v (%#x), scalar loop %v (%#x)",
				what, i, len(want), g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

func floatBytes(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// TestShardedResolveTree: Resolve's tiled tree is the pairwise
// reduction ((s0+s1)+(s2+s3))+… over the shard index, bit for bit, at
// every shard count up to 9 and across tile boundaries: each shard
// holds one client's exact values (weight 1), so the reference is the
// same additions written out over the accumulators.
func TestShardedResolveTree(t *testing.T) {
	for _, dim := range []int{1, 5, aggTile + 3} {
		for p := 1; p <= 9; p++ {
			a, err := NewShardedFedAvg(dim, p)
			if err != nil {
				t.Fatal(err)
			}
			// One client per shard: ShardOf is a hash, so search IDs.
			for s, id := 0, history.ClientID(0); s < p; id++ {
				if ShardOf(id, p) != s {
					continue
				}
				g := make([]float64, dim)
				for i := range g {
					g[i] = math.Sin(float64(i+1)*float64(s+2)) * math.Pow(10, float64(s%5))
				}
				if err := a.Add(id, g, 1); err != nil {
					t.Fatal(err)
				}
				s++
			}
			want := pairwise(a.shards, dim)
			got := make([]float64, dim)
			if err := a.Resolve(got); err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("dim %d P %d", dim, p), got, want)
		}
	}
}

// pairwise is the level-stack tree reduction written out directly over
// whole accumulators, then scaled by 1/Σw.
func pairwise(shards []shardAcc, dim int) []float64 {
	type node struct {
		sum   []float64
		w     float64
		level int
	}
	add := func(l, r node) node {
		s := make([]float64, dim)
		for j := range s {
			s[j] = l.sum[j] + r.sum[j]
		}
		return node{s, l.w + r.w, l.level + 1}
	}
	var stack []node
	for i := range shards {
		cur := node{shards[i].sum, shards[i].weight, 0}
		for len(stack) > 0 && stack[len(stack)-1].level == cur.level {
			cur = add(stack[len(stack)-1], cur)
			stack = stack[:len(stack)-1]
		}
		stack = append(stack, cur)
	}
	res := stack[len(stack)-1]
	for i := len(stack) - 2; i >= 0; i-- {
		res = add(stack[i], res)
	}
	out := make([]float64, dim)
	inv := 1 / res.w
	for j, v := range res.sum {
		out[j] = v * inv
	}
	return out
}

// TestRangeAggregatorMatchesFedAvg: the RangeAggregator's element-range
// split of FedAvg is AggregateInto on the full vector, bit for bit, for
// dimensions around the split points and one client up to sixteen with
// unequal (and some defaulted) weights, at widths 1, 2 and 3 forced
// whatever RangeWorkers would pick; and it fails with AggregateInto's
// error on a negative weight, a zero total weight and a length
// mismatch.
func TestRangeAggregatorMatchesFedAvg(t *testing.T) {
	r := rng.New(27)
	for _, dim := range []int{1, 3, 4, 5, 1211, 1212, 34186} {
		for _, width := range []int{1, 2, 3} {
			var a RangeAggregator
			var ids []history.ClientID
			grads := make(map[history.ClientID][]float64)
			weights := make(map[history.ClientID]float64)
			got, want := make([]float64, dim), make([]float64, dim)
			for clients := 1; clients <= 16; clients++ {
				name := fmt.Sprintf("dim %d width %d clients %d", dim, width, clients)
				ids = ids[:0]
				clear(grads)
				clear(weights)
				for c := 0; c < clients; c++ {
					id := history.ClientID(3*c + 1)
					ids = append(ids, id)
					g := make([]float64, dim)
					for i := range g {
						g[i] = r.NormalScaled(0, 1)
					}
					grads[id] = g
					if c%4 != 3 { // every fourth client takes the default weight
						weights[id] = float64(1 + r.IntN(200))
					}
				}
				if err := (FedAvg{}).AggregateInto(want, ids, grads, weights); err != nil {
					t.Fatal(err)
				}
				clear(got)
				if err := a.aggregate(got, ids, grads, weights, width); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sameBits(t, name, got, want)
			}

			last := ids[len(ids)-1]
			bad := []struct {
				name  string
				spoil func()
			}{
				{"negative weight", func() { weights[ids[2]] = -1 }},
				{"zero total weight", func() {
					for _, id := range ids {
						weights[id] = 0
					}
				}},
				{"length mismatch", func() { grads[last] = grads[last][:dim-1] }},
			}
			for _, b := range bad {
				keepG, keepW := grads[last], make(map[history.ClientID]float64, len(weights))
				for id, w := range weights {
					keepW[id] = w
				}
				b.spoil()
				wantErr := (FedAvg{}).AggregateInto(want, ids, grads, weights)
				gotErr := a.aggregate(got, ids, grads, weights, width)
				if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
					t.Errorf("dim %d width %d %s: err %v, AggregateInto %v", dim, width, b.name, gotErr, wantErr)
				}
				grads[last], weights = keepG, keepW
			}
		}
	}
}

// TestRangeWorkersOffForSmallModels: the split stays off below
// MinRangeWork of aggregation — at the TrafficCNN's 1 212 parameters
// for any fleet a test or benchmark runs — and never exceeds the
// caller's parallelism.
func TestRangeWorkersOffForSmallModels(t *testing.T) {
	for clients := 1; clients <= 16; clients++ {
		if w := RangeWorkers(1212, clients, 8); w != 1 {
			t.Errorf("dim 1212, %d clients: %d range workers, want the split off", clients, w)
		}
	}
	if w := RangeWorkers(34186, 15, 2); w != 2 {
		t.Errorf("dim 34186, 15 clients, parallelism 2: %d range workers, want 2", w)
	}
	if w := RangeWorkers(34186, 15, 64); w != 34186*15/MinRangeWork {
		t.Errorf("dim 34186, 15 clients, parallelism 64: %d range workers, want %d", w, 34186*15/MinRangeWork)
	}
}
