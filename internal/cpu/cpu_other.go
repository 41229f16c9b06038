//go:build !amd64

// Package cpu holds the one CPUID verdict the packed kernels dispatch on
// (internal/kernels' P2P bodies, internal/expansion's M2L bodies).
package cpu

// AVX2 is false off amd64: there are no packed bodies to dispatch to.
var AVX2 = false
