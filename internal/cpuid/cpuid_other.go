//go:build !amd64

package cpuid

// AVX2 is false off amd64: the portable loops run everything.
const AVX2 = false
