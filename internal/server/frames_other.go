//go:build !go1.24

package server

// framePool recycles dense upload frames through weak pointers, which
// need Go 1.24; before that every dense upload reads into a fresh frame.
type framePool struct{}

func (*framePool) get(int) []float64 { return nil }

func (*framePool) put([]float64) {}
