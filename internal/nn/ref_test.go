package nn

import (
	"fmt"
	"math"
)

// Reference implementations the production kernels are checked
// against: the original direct-loop layers, the allocating loss and
// argmax, and the whole-batch training step they compose into.

// refLossAndGrad is the whole-batch composition LossAndGrad replaced:
// one Forward and one Backward per layer over all N samples (the first
// layer's input gradient included), the allocating loss, a separate
// argmax pass. It runs on a fresh clone, so no buffer the network under
// test has reused can leak into the reference.
func refLossAndGrad(net *Network, x *Batch, labels []int) (loss float64, correct int, grad []float64, logits *Batch) {
	ref := net.Clone()
	ref.ZeroGrads()
	logits = x
	for _, l := range ref.layers {
		logits = l.Forward(logits)
	}
	loss, dy := refSoftmaxCrossEntropy(logits, labels)
	for i, p := range refArgmax(logits) {
		if p == labels[i] {
			correct++
		}
	}
	for i := len(ref.layers) - 1; i >= 0; i-- {
		dy = ref.layers[i].Backward(dy)
	}
	return loss, correct, ref.GradVector(), logits
}

// refSoftmaxCrossEntropy computes the mean softmax cross-entropy loss of
// a batch of logits against integer class labels, together with the
// gradient of the loss with respect to the logits.
//
// The returned gradient already includes the 1/N batch averaging, so a
// full backward pass through the network produces the gradient of the
// *mean* loss — the quantity clients exchange with the server.
func refSoftmaxCrossEntropy(logits *Batch, labels []int) (loss float64, dLogits *Batch) {
	if logits.N != len(labels) {
		panic(fmt.Sprintf("nn.refSoftmaxCrossEntropy: %d samples vs %d labels", logits.N, len(labels)))
	}
	classes := logits.Dims.Size()
	dLogits = NewBatch(logits.N, logits.Dims)
	invN := 1 / float64(logits.N)
	for n := 0; n < logits.N; n++ {
		z := logits.Sample(n)
		g := dLogits.Sample(n)
		label := labels[n]
		if label < 0 || label >= classes {
			panic(fmt.Sprintf("nn.refSoftmaxCrossEntropy: label %d out of range [0,%d)", label, classes))
		}
		// Numerically stable log-sum-exp.
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
		loss += (logSum - z[label]) * invN
		for c := 0; c < classes; c++ {
			p := math.Exp(z[c] - logSum)
			if c == label {
				p -= 1
			}
			g[c] = p * invN
		}
	}
	return loss, dLogits
}

// refArgmax returns the index of the largest logit for each sample.
func refArgmax(logits *Batch) []int {
	out := make([]int, logits.N)
	for n := 0; n < logits.N; n++ {
		z := logits.Sample(n)
		best := 0
		for c := 1; c < len(z); c++ {
			if z[c] > z[best] {
				best = c
			}
		}
		out[n] = best
	}
	return out
}

// forwardNaive is the original direct 7-loop convolution, kept as the
// reference implementation for the kernel equivalence tests.
func (c *Conv2D) forwardNaive(x *Batch) *Batch {
	if x.Dims.C != c.InC {
		panic(fmt.Sprintf("nn.Conv2D: input channels %d, layer expects %d", x.Dims.C, c.InC))
	}
	c.lastIn = x
	outDims := c.OutputDims(x.Dims)
	if outDims.H <= 0 || outDims.W <= 0 {
		panic(fmt.Sprintf("nn.Conv2D: kernel %d too large for input %s", c.K, x.Dims))
	}
	out := NewBatch(x.N, outDims)
	w, b := c.weights(), c.bias()
	ih, iw := x.Dims.H, x.Dims.W
	oh, ow := outDims.H, outDims.W
	off := c.padOffset()
	for n := 0; n < x.N; n++ {
		in := x.Sample(n)
		y := out.Sample(n)
		for oc := 0; oc < c.OutC; oc++ {
			bias := b[oc]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := bias
					for ic := 0; ic < c.InC; ic++ {
						wBase := ((oc*c.InC + ic) * c.K) * c.K
						inBase := ic * ih * iw
						for ky := 0; ky < c.K; ky++ {
							sy := oy + ky - off
							if sy < 0 || sy >= ih {
								continue
							}
							rowW := w[wBase+ky*c.K : wBase+(ky+1)*c.K]
							rowIn := in[inBase+sy*iw : inBase+(sy+1)*iw]
							for kx := 0; kx < c.K; kx++ {
								sx := ox + kx - off
								if sx < 0 || sx >= iw {
									continue
								}
								s += rowW[kx] * rowIn[sx]
							}
						}
					}
					y[(oc*oh+oy)*ow+ox] = s
				}
			}
		}
	}
	return out
}

// backwardNaive is the original direct-loop backward pass, kept as the
// reference implementation for the kernel equivalence tests. It must
// be preceded by forwardNaive or Forward on the same batch.
func (c *Conv2D) backwardNaive(dy *Batch) *Batch {
	x := c.lastIn
	if x == nil {
		panic("nn.Conv2D: Backward before Forward")
	}
	dx := NewBatch(x.N, x.Dims)
	w := c.weights()
	gw := c.grads[:len(w)]
	gb := c.grads[len(w):]
	ih, iw := x.Dims.H, x.Dims.W
	oh, ow := dy.Dims.H, dy.Dims.W
	off := c.padOffset()
	for n := 0; n < x.N; n++ {
		in := x.Sample(n)
		din := dx.Sample(n)
		g := dy.Sample(n)
		for oc := 0; oc < c.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gv := g[(oc*oh+oy)*ow+ox]
					if gv == 0 {
						continue
					}
					gb[oc] += gv
					for ic := 0; ic < c.InC; ic++ {
						wBase := ((oc*c.InC + ic) * c.K) * c.K
						inBase := ic * ih * iw
						for ky := 0; ky < c.K; ky++ {
							sy := oy + ky - off
							if sy < 0 || sy >= ih {
								continue
							}
							for kx := 0; kx < c.K; kx++ {
								sx := ox + kx - off
								if sx < 0 || sx >= iw {
									continue
								}
								idxIn := inBase + sy*iw + sx
								idxW := wBase + ky*c.K + kx
								gw[idxW] += gv * in[idxIn]
								din[idxIn] += gv * w[idxW]
							}
						}
					}
				}
			}
		}
	}
	return dx
}

// forwardNaive is the original per-sample loop, kept as the reference
// implementation for the kernel equivalence tests.
func (d *Dense) forwardNaive(x *Batch) *Batch {
	if x.Dims.Size() != d.In {
		panic(fmt.Sprintf("nn.Dense: input size %d, layer expects %d", x.Dims.Size(), d.In))
	}
	d.lastIn = x
	out := NewBatch(x.N, Dims{C: d.Out, H: 1, W: 1})
	w, b := d.weights(), d.bias()
	for n := 0; n < x.N; n++ {
		xi := x.Sample(n)
		yo := out.Sample(n)
		for o := 0; o < d.Out; o++ {
			row := w[o*d.In : (o+1)*d.In]
			s := b[o]
			for i, v := range xi {
				s += row[i] * v
			}
			yo[o] = s
		}
	}
	return out
}

// backwardNaive is the original per-sample loop, kept as the reference
// implementation for the kernel equivalence tests. It must follow
// forwardNaive or Forward on the same batch.
func (d *Dense) backwardNaive(dy *Batch) *Batch {
	x := d.lastIn
	if x == nil {
		panic("nn.Dense: Backward before Forward")
	}
	dx := NewBatch(x.N, x.Dims)
	w := d.weights()
	gw := d.grads[:d.In*d.Out]
	gb := d.grads[d.In*d.Out:]
	for n := 0; n < x.N; n++ {
		xi := x.Sample(n)
		dyo := dy.Sample(n)
		dxi := dx.Sample(n)
		for o := 0; o < d.Out; o++ {
			g := dyo[o]
			if g == 0 {
				continue
			}
			row := w[o*d.In : (o+1)*d.In]
			grow := gw[o*d.In : (o+1)*d.In]
			for i, v := range xi {
				grow[i] += g * v
				dxi[i] += g * row[i]
			}
			gb[o] += g
		}
	}
	return dx
}

// maxPoolNaive is the direct-loop max pool ConvReLUPool is held to:
// per sample, channel and output position it scans the size×size
// window row by row from its top-left element and keeps the first
// strictly greater value, returning the pooled batch data and each
// output's source index within its sample.
func maxPoolNaive(x *Batch, size int) (out []float64, idx []int) {
	oh, ow := x.Dims.H/size, x.Dims.W/size
	for n := 0; n < x.N; n++ {
		in := x.Sample(n)
		for c := 0; c < x.Dims.C; c++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					at := func(ky, kx int) int {
						return (c*x.Dims.H+oy*size+ky)*x.Dims.W + ox*size + kx
					}
					best := at(0, 0)
					for ky := 0; ky < size; ky++ {
						for kx := 0; kx < size; kx++ {
							if i := at(ky, kx); in[i] > in[best] {
								best = i
							}
						}
					}
					out = append(out, in[best])
					idx = append(idx, best)
				}
			}
		}
	}
	return out, idx
}

// GradVector returns a copy of all parameter gradients concatenated in
// layer order, aligned with ParamVector.
func (n *Network) GradVector() []float64 {
	return n.GradVectorInto(make([]float64, n.NumParams()))
}
