// Package cpuid is the repository's one CPU feature probe. The vector
// kernels in internal/sign, internal/tensor and internal/nn branch on
// AVX2 alone; no flag, environment variable or build tag selects them.
package cpuid
