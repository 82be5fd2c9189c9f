package nn

// Model factories for the paper's experiment configurations. The
// layer layouts follow §V-A: the MNIST-style model has two
// convolutional layers and two fully connected layers; the GTSRB-style
// model has two convolutional layers and one fully connected layer.
// Spatial sizes are parameterised because the synthetic datasets use
// reduced resolutions (see DESIGN.md §2).

// NewDigitsCNN returns the MNIST-style model: conv(1→4,3×3, same) →
// ReLU → pool2 → conv(4→8,3×3, same) → ReLU → pool2 → flatten →
// dense(→32) → ReLU → dense(→classes). Each conv → ReLU → pool2 runs as
// one ConvReLUPool layer.
func NewDigitsCNN(img, classes int) *Network {
	in := Dims{C: 1, H: img, W: img}
	p := img / 2 / 2
	flat := 8 * p * p
	return MustNetwork(in,
		NewConvReLUPool(1, 4, 3),
		NewConvReLUPool(4, 8, 3),
		NewFlatten(),
		NewDense(flat, 32), NewReLU(),
		NewDense(32, classes),
	)
}

// NewTrafficCNN returns the GTSRB-style model: conv(1→4) → ReLU →
// pool2 → conv(4→8) → ReLU → pool2 → flatten → dense(→classes), each
// conv → ReLU → pool2 one ConvReLUPool layer.
func NewTrafficCNN(img, classes int) *Network {
	in := Dims{C: 1, H: img, W: img}
	p := img / 2 / 2
	flat := 8 * p * p
	return MustNetwork(in,
		NewConvReLUPool(1, 4, 3),
		NewConvReLUPool(4, 8, 3),
		NewFlatten(),
		NewDense(flat, classes),
	)
}

// NewMLP returns a fully connected network with the given layer sizes
// (sizes[0] inputs through sizes[len-1] outputs) and ReLU activations
// between layers. Used by the fast CI-scale experiment configurations.
func NewMLP(sizes ...int) *Network {
	if len(sizes) < 2 {
		panic("nn.NewMLP: need at least input and output sizes")
	}
	layers := make([]Layer, 0, 2*len(sizes)-3)
	for i := 0; i < len(sizes)-1; i++ {
		layers = append(layers, NewDense(sizes[i], sizes[i+1]))
		if i < len(sizes)-2 {
			layers = append(layers, NewReLU())
		}
	}
	return MustNetwork(Dims{C: sizes[0], H: 1, W: 1}, layers...)
}
