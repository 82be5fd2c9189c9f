package nn

import (
	"fmt"
	"runtime"
	"testing"

	"fuiov/internal/rng"
)

// testModels are the three architectures the experiments train, at the
// benchmark's input size.
func testModels() map[string]*Network {
	return map[string]*Network{
		"TrafficCNN": NewTrafficCNN(12, 12),
		"DigitsCNN":  NewDigitsCNN(12, 10),
		"MLP":        NewMLP(64, 32, 10),
	}
}

// TestLossAndGradMatchesWholeBatch pins the micro-batched step to the
// whole-batch composition it replaced, bit for bit: loss, correct
// count and every gradient element, over batch sizes on both sides of
// every chunk boundary, at GOMAXPROCS 1 and 2, and across consecutive
// SGD steps on one network (the LocalSteps > 1 path: reused buffers
// must carry nothing from one step into the next). Evaluate, Predict
// and Forward walk the same chunks and are held to the same reference.
func TestLossAndGradMatchesWholeBatch(t *testing.T) {
	const m = microBatch
	for name, net := range testModels() {
		for _, n := range []int{1, m - 1, m, m + 1, 68, 2*m + 3} {
			for _, procs := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/N=%d/procs=%d", name, n, procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					r := rng.New(rng.Mix(900, uint64(n)))
					net.Init(r.Split(1))
					classes := net.OutDims().Size()
					for step := 0; step < 3; step++ {
						x, labels := randomBatch(r, n, net.InDims, classes)
						wantLoss, wantCorrect, wantGrad, wantLogits := refLossAndGrad(net, x, labels)

						loss, correct := net.LossAndGrad(x, labels)
						if loss != wantLoss || correct != wantCorrect {
							t.Fatalf("step %d: LossAndGrad = (%v, %d), want (%v, %d)",
								step, loss, correct, wantLoss, wantCorrect)
						}
						bitEqual(t, "gradient", net.GradVector(), wantGrad)

						loss, correct = net.Evaluate(x, labels)
						if loss != wantLoss || correct != wantCorrect {
							t.Fatalf("step %d: Evaluate = (%v, %d), want (%v, %d)",
								step, loss, correct, wantLoss, wantCorrect)
						}
						bitEqual(t, "logits", net.Forward(x).Data, wantLogits.Data)
						preds := net.Predict(x)
						for i, p := range refArgmax(wantLogits) {
							if preds[i] != p {
								t.Fatalf("step %d: Predict[%d] = %d, want %d", step, i, preds[i], p)
							}
						}
						net.SGDStep(0.1)
					}
				})
			}
		}
	}
}

// workspaceBytes sums the capacity of every buffer the network and its
// layers own.
func workspaceBytes(n *Network) int {
	floats := cap(n.dLogits.Data)
	ints := 0
	for _, l := range n.layers {
		switch l := l.(type) {
		case *Conv2D:
			floats += cap(l.out.Data) + cap(l.dx.Data) + cap(l.xpad) + cap(l.gpad) + cap(l.work)
		case *Dense:
			floats += cap(l.out.Data) + cap(l.dx.Data)
		case *ReLU:
			floats += cap(l.out.Data) + cap(l.dx.Data)
		case *Tanh:
			floats += cap(l.out.Data) + cap(l.dx.Data)
		case *ConvReLUPool:
			floats += cap(l.out.Data) + cap(l.dx.Data) + cap(l.xpad) + cap(l.gpad) + cap(l.work)
			ints += cap(l.argmax)
		case *Flatten: // views of its neighbours' buffers
		default:
			panic(fmt.Sprintf("workspaceBytes: unknown layer %T", l))
		}
	}
	return 8 * (floats + ints)
}

// TestWorkspaceIndependentOfBatch checks that training scratch is
// bounded by the micro-batch: ten times the batch needs not one byte
// more, and the first layer never materialises an input gradient.
func TestWorkspaceIndependentOfBatch(t *testing.T) {
	for name, net := range testModels() {
		r := rng.New(910)
		net.Init(r)
		classes := net.OutDims().Size()
		sizes := map[int]int{}
		for _, n := range []int{68, 680} {
			c := net.Clone()
			x, labels := randomBatch(r, n, net.InDims, classes)
			c.LossAndGrad(x, labels)
			c.Evaluate(x, labels)
			sizes[n] = workspaceBytes(c)
			switch first := c.layers[0].(type) {
			case *Conv2D:
				if cap(first.dx.Data) != 0 || cap(first.gpad) != 0 {
					t.Errorf("%s: first conv layer built an input gradient (dx %d, gpad %d floats)",
						name, cap(first.dx.Data), cap(first.gpad))
				}
			case *ConvReLUPool:
				// Its parameter pass reads the output gradient in gpad.
				if cap(first.dx.Data) != 0 {
					t.Errorf("%s: first conv layer built an input gradient (%d floats)",
						name, cap(first.dx.Data))
				}
			case *Dense:
				if cap(first.dx.Data) != 0 {
					t.Errorf("%s: first dense layer built an input gradient (%d floats)",
						name, cap(first.dx.Data))
				}
			}
		}
		if sizes[68] == 0 || sizes[68] != sizes[680] {
			t.Errorf("%s: workspace %d B at N=68, %d B at N=680; want equal and non-zero",
				name, sizes[68], sizes[680])
		}
	}
}
