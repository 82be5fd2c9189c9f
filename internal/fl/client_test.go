package fl

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"fuiov/internal/dataset"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
)

// fleetClient builds one vehicle the way the fleet_cnn benchmark
// workload does: a shard of SynthTraffic images and the TrafficCNN
// over them.
func fleetClient(tb testing.TB, shard int) (*Client, *nn.Network, []float64) {
	tb.Helper()
	const seed = 1
	data := dataset.SynthTraffic(dataset.DefaultTraffic(shard, seed))
	net := nn.NewTrafficCNN(data.Dims.H, data.Classes)
	net.Init(rng.New(seed))
	return &Client{ID: 1, Data: data}, net, net.ParamVector()
}

// refComputeGradient is the composition ComputeGradient replaced: a
// fresh clone, freshly allocated mini-batches from the Dataset API, and
// copied-out parameter and gradient vectors.
func refComputeGradient(c *Client, template *nn.Network, params []float64, seed uint64, round int) []float64 {
	net := template.Clone()
	net.SetParamVector(params)
	r := rng.New(rng.Mix(seed, uint64(c.ID)+1, uint64(round)+1))
	sample := func() (*nn.Batch, []int) {
		if c.BatchSize > 0 && c.BatchSize < c.Data.Len() {
			return c.Data.SampleBatch(r, c.BatchSize)
		}
		return c.Data.FullBatch()
	}
	var g []float64
	if c.LocalSteps > 1 {
		for step := 0; step < c.LocalSteps; step++ {
			net.LossAndGrad(sample())
			net.SGDStep(c.LocalLR)
		}
		end := net.ParamVector()
		g = make([]float64, len(params))
		inv := 1 / c.LocalLR
		for i := range g {
			g[i] = (params[i] - end[i]) * inv
		}
	} else {
		net.LossAndGrad(sample())
		g = net.GradVectorInto(make([]float64, len(params)))
	}
	return g
}

// TestComputeGradientMatchesReference holds one long-lived client —
// reused clone, mini-batch, label and index buffers — to the
// allocating reference, bit for bit and round after round, over full
// and sampled batches and the LocalSteps > 1 pseudo-gradient.
func TestComputeGradientMatchesReference(t *testing.T) {
	for _, batch := range []int{0, 24} {
		for _, steps := range []int{1, 3} {
			t.Run(fmt.Sprintf("batch=%d/steps=%d", batch, steps), func(t *testing.T) {
				c, net, params := fleetClient(t, 68)
				c.BatchSize, c.LocalSteps, c.LocalLR = batch, steps, 0.05
				for round := 0; round < 4; round++ {
					got, err := c.ComputeGradient(net, params, 9, round)
					if err != nil {
						t.Fatal(err)
					}
					want := refComputeGradient(c, net, params, 9, round)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("round %d: element %d = %v, want %v", round, i, got[i], want[i])
						}
					}
					// Move the model so the next round differs.
					for i := range params {
						params[i] -= 0.1 * got[i]
					}
				}
			})
		}
	}
}

// TestComputeGradientAllocs pins the steady-state cost of a training
// round at GOMAXPROCS 1 and 2: the returned gradient, the round's RNG,
// and nothing that grows with the shard or comes from the conv layers'
// per-sample fan-out.
func TestComputeGradientAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type cost struct{ allocs, bytes float64 }
	measure := func(shard int) cost {
		c, net, params := fleetClient(t, shard)
		round := 0
		step := func() {
			if _, err := c.ComputeGradient(net, params, 9, round); err != nil {
				t.Fatal(err)
			}
			round++
		}
		// Warm-up: clone, workspace, mini-batch buffers, fan-out
		// workers, and exited goroutines for a fan-out to reuse.
		for i := 0; i < 10; i++ {
			step()
		}
		// Counted from MemStats rather than testing.AllocsPerRun, which
		// would run the steps at GOMAXPROCS 1. MemStats is process-wide
		// and the runtime allocates now and then on its own (a fan-out
		// that finds no free goroutine on its P makes one), so the
		// count is the least over five windows: a per-round allocation
		// shows in every window.
		const runs = 10
		best := cost{math.Inf(1), math.Inf(1)}
		for w := 0; w < 5; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				step()
			}
			runtime.ReadMemStats(&after)
			best.allocs = min(best.allocs, float64(after.Mallocs-before.Mallocs)/runs)
			best.bytes = min(best.bytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return best
	}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		small, large := measure(68), measure(272)
		_, net, _ := fleetClient(t, 68)
		gradBytes := float64(8 * net.NumParams())
		t.Logf("GOMAXPROCS %d: shard 68: %v allocs, %v B; shard 272: %v allocs, %v B; gradient %v B",
			procs, small.allocs, small.bytes, large.allocs, large.bytes, gradBytes)
		// TotalAlloc is process-wide, so the byte bound carries a little
		// slack for the runtime; one shard-sized buffer would be ≥ 78 KB.
		for _, c := range []cost{small, large} {
			if c.allocs > 4 || c.bytes > gradBytes+256 {
				t.Errorf("GOMAXPROCS %d: steady-state round allocates %v times, %v B; want at most 4 and the %v B gradient + 256",
					procs, c.allocs, c.bytes, gradBytes)
			}
		}
		if small.allocs != large.allocs {
			t.Errorf("GOMAXPROCS %d: allocations grow with the shard: %v at 68 samples, %v at 272",
				procs, small.allocs, large.allocs)
		}
	}
}

// BenchmarkClientGradient measures one vehicle's training round on the
// fleet_cnn shapes (68-sample shard, 12×12 TrafficCNN, full batch).
func BenchmarkClientGradient(b *testing.B) {
	c, net, params := fleetClient(b, 68)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ComputeGradient(net, params, 9, i); err != nil {
			b.Fatal(err)
		}
	}
}
