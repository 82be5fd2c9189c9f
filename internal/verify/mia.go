// Shadow-model membership inference (Shokri et al., adapted to the
// synthetic IoV datasets). K shadow models are trained on disjoint
// in/out halves of a clean pool; per-sample loss and true-class
// confidence — standardized against each model's own non-member
// statistics so the decision boundary transfers between shadow and
// target models — feed a deterministically fitted logistic attack.

package verify

import (
	"context"
	"math"

	"fuiov/internal/dataset"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
)

// logistic is the attack model over standardized (loss, confidence)
// features: P(member) = σ(w₀·zLoss + w₁·zConf + b).
type logistic struct {
	wLoss, wConf, bias float64
}

func (l logistic) memberScore(zLoss, zConf float64) float64 {
	return l.wLoss*zLoss + l.wConf*zConf + l.bias
}

// featurePair is one sample's raw attack features.
type featurePair struct {
	loss float64 // per-sample cross-entropy at the true label
	conf float64 // softmax probability of the true label
}

// modelFeatures computes per-sample attack features with one forward
// pass over the whole dataset.
func modelFeatures(net *nn.Network, d *dataset.Dataset) []featurePair {
	if d.Len() == 0 {
		return nil
	}
	x, labels := d.FullBatch()
	logits := net.Forward(x)
	out := make([]featurePair, logits.N)
	for n := 0; n < logits.N; n++ {
		z := logits.Sample(n)
		maxZ := z[0]
		for _, v := range z[1:] {
			if v > maxZ {
				maxZ = v
			}
		}
		var sum float64
		for _, v := range z {
			sum += math.Exp(v - maxZ)
		}
		logSum := math.Log(sum) + maxZ
		out[n] = featurePair{
			loss: logSum - z[labels[n]],
			conf: math.Exp(z[labels[n]] - logSum),
		}
	}
	return out
}

// standardizer rescales features by a reference population's mean and
// standard deviation — always the model's own non-member set, so
// "unusually low loss for this model" means the same thing whichever
// model produced it.
type standardizer struct {
	meanLoss, stdLoss float64
	meanConf, stdConf float64
}

func newStandardizer(ref []featurePair) standardizer {
	s := standardizer{stdLoss: 1, stdConf: 1}
	if len(ref) == 0 {
		return s
	}
	inv := 1 / float64(len(ref))
	s.meanLoss, s.meanConf = 0, 0
	for _, f := range ref {
		s.meanLoss += f.loss * inv
		s.meanConf += f.conf * inv
	}
	var vl, vc float64
	for _, f := range ref {
		dl, dc := f.loss-s.meanLoss, f.conf-s.meanConf
		vl += dl * dl * inv
		vc += dc * dc * inv
	}
	const floor = 1e-9
	s.stdLoss = math.Max(math.Sqrt(vl), floor)
	s.stdConf = math.Max(math.Sqrt(vc), floor)
	return s
}

func (s standardizer) apply(f featurePair) (zLoss, zConf float64) {
	return (f.loss - s.meanLoss) / s.stdLoss, (f.conf - s.meanConf) / s.stdConf
}

// attackExample is one standardized, membership-labelled training
// point for the logistic fit.
type attackExample struct {
	zLoss, zConf float64
	member       bool
}

// fitAttack trains the shadow models and fits the logistic attack.
func (s *Suite) fitAttack(ctx context.Context) (logistic, error) {
	pool := s.tgt.ShadowPool
	if pool == nil {
		pool = s.tgt.Test
	}
	var examples []attackExample
	for k := 0; k < s.cfg.Shadows; k++ {
		if err := ctx.Err(); err != nil {
			return logistic{}, err
		}
		span := s.met.shadowTrain.Start()
		r := rng.New(rng.Mix(s.tgt.Seed, 0x5ad0, uint64(k)))
		perm := r.Perm(pool.Len())
		half := pool.Len() / 2
		in := pool.Subset(perm[:half])
		out := pool.Subset(perm[half:])

		net := s.tgt.Template.Clone()
		net.Init(r.Split(1))
		tr := r.Split(2)
		for step := 0; step < s.cfg.ShadowSteps; step++ {
			x, labels := in.SampleBatch(tr, shadowBatch)
			net.LossAndGrad(x, labels)
			net.SGDStep(shadowLR)
		}
		span.End()
		s.met.shadows.Inc()

		outF := modelFeatures(net, out)
		std := newStandardizer(outF)
		for _, f := range modelFeatures(net, in) {
			zl, zc := std.apply(f)
			examples = append(examples, attackExample{zl, zc, true})
		}
		for _, f := range outF {
			zl, zc := std.apply(f)
			examples = append(examples, attackExample{zl, zc, false})
		}
	}

	span := s.met.fit.Start()
	defer span.End()
	return fitLogistic(examples), nil
}

// fitLogistic runs fixed-epoch full-batch gradient descent on the
// logistic loss — no randomness, no early stopping, so the fit is a
// pure function of the examples.
func fitLogistic(examples []attackExample) logistic {
	var l logistic
	if len(examples) == 0 {
		return l
	}
	const (
		epochs = 300
		lr     = 0.5
	)
	inv := 1 / float64(len(examples))
	for e := 0; e < epochs; e++ {
		var gLoss, gConf, gBias float64
		for _, ex := range examples {
			p := sigmoid(l.memberScore(ex.zLoss, ex.zConf))
			d := p
			if ex.member {
				d = p - 1
			}
			gLoss += d * ex.zLoss
			gConf += d * ex.zConf
			gBias += d
		}
		l.wLoss -= lr * gLoss * inv
		l.wConf -= lr * gConf * inv
		l.bias -= lr * gBias * inv
	}
	return l
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// advantage evaluates the fitted attack against the model currently
// loaded in net: members are the forgotten shards, non-members the
// clean test set, features standardized against the test set (this
// model's non-member population). The result is the attacker's edge
// over random guessing, max(0, balanced accuracy − 0.5); below-chance
// accuracy means the members look *less* training-like than fresh
// data — no membership signal — and clamps to 0.
func (s *Suite) advantage(net *nn.Network) float64 {
	nonF := modelFeatures(net, s.tgt.Test)
	memF := modelFeatures(net, s.forgotten)
	std := newStandardizer(nonF)

	var tpr, tnr float64
	for _, f := range memF {
		if s.att.memberScore(std.apply(f)) > 0 {
			tpr++
		}
	}
	for _, f := range nonF {
		if s.att.memberScore(std.apply(f)) <= 0 {
			tnr++
		}
	}
	tpr /= float64(len(memF))
	tnr /= float64(len(nonF))
	s.met.evals.Inc()
	return math.Max(0, (tpr+tnr)/2-0.5)
}
