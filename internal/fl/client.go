// Package fl simulates federated learning in the Internet of Vehicles:
// vehicles (clients) compute stochastic gradients on private shards,
// the RSU (server) aggregates them with FedAvg (eq. 1–2 of the paper)
// and records history for later unlearning. Membership is dynamic —
// vehicles can join, leave, and drop out at any round.
package fl

import (
	"fmt"

	"fuiov/internal/dataset"
	"fuiov/internal/history"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
)

// Client is one vehicle participating in federated learning.
type Client struct {
	ID history.ClientID
	// Data is the client's private shard. Poisoned clients hold a
	// poisoned shard (see internal/attack).
	Data *dataset.Dataset
	// BatchSize caps the per-round mini-batch (0 = full shard).
	BatchSize int
	// LocalSteps is the number of local SGD steps per round (0 or 1 =
	// single-gradient FedSGD, the paper's protocol). With k > 1 the
	// client performs k mini-batch steps at LocalLR and uploads the
	// pseudo-gradient (w_start − w_end)/LocalLR, the classic FedAvg of
	// McMahan et al. — so the server-side update rule (eq. 2) is
	// unchanged.
	LocalSteps int
	// LocalLR is the client-side step size when LocalSteps > 1; it
	// must be positive in that case.
	LocalLR float64

	// net is the client's private model replica, lazily cloned from
	// the server template so concurrent clients never share state.
	net *nn.Network
	// batch, labels and idx are the mini-batch workspace, refilled in
	// place every step.
	batch  nn.Batch
	labels []int
	idx    []int
}

// Weight returns the FedAvg aggregation weight |Dᵢ| (eq. 1).
func (c *Client) Weight() float64 { return float64(c.Data.Len()) }

// ComputeGradient evaluates the gradient of the mean training loss at
// the given global parameters on a mini-batch drawn deterministically
// from (seed, round, client ID). template provides the architecture;
// the client keeps a private clone and its mini-batch workspace across
// rounds, so a steady-state call allocates little beyond the returned
// gradient — a fresh slice the caller may retain.
func (c *Client) ComputeGradient(template *nn.Network, params []float64, seed uint64, round int) ([]float64, error) {
	if c.Data == nil || c.Data.Len() == 0 {
		return nil, fmt.Errorf("fl: client %d has no data", c.ID)
	}
	if c.net == nil {
		c.net = template.Clone()
	}
	c.net.SetParamVector(params)
	r := rng.New(rng.Mix(seed, uint64(c.ID)+1, uint64(round)+1))

	g := make([]float64, len(params))
	if c.LocalSteps > 1 {
		if c.LocalLR <= 0 {
			return nil, fmt.Errorf("fl: client %d has %d local steps but LocalLR %v",
				c.ID, c.LocalSteps, c.LocalLR)
		}
		for step := 0; step < c.LocalSteps; step++ {
			c.net.LossAndGrad(c.sampleBatch(r))
			c.net.SGDStep(c.LocalLR)
		}
		// Pseudo-gradient: the direction the local run moved, rescaled
		// so the server's η-step (eq. 2) reproduces FedAvg model
		// averaging.
		c.net.ParamVectorInto(g)
		inv := 1 / c.LocalLR
		for i, end := range g {
			g[i] = (params[i] - end) * inv
		}
	} else {
		c.net.LossAndGrad(c.sampleBatch(r))
		c.net.GradVectorInto(g)
	}
	return g, nil
}

// sampleBatch draws the round's mini-batch (or the full shard when
// BatchSize is 0 or exceeds the shard) into the client's workspace. A
// mini-batch is the first BatchSize entries of a permutation of the
// shard — the draw Dataset.SampleBatch makes.
func (c *Client) sampleBatch(r *rng.RNG) (*nn.Batch, []int) {
	n := c.Data.Len()
	if cap(c.idx) < n {
		c.idx = make([]int, n)
	}
	idx := c.idx[:n]
	if c.BatchSize > 0 && c.BatchSize < n {
		r.PermInto(idx)
		idx = idx[:c.BatchSize]
	} else {
		for i := range idx {
			idx[i] = i
		}
	}
	c.labels = c.Data.BatchInto(&c.batch, c.labels, idx)
	return &c.batch, c.labels
}
