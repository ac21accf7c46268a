package mpi

import "math"

// Common reduction operators.
var (
	// OpSum adds.
	OpSum = func(a, b float64) float64 { return a + b }
	// OpMax takes the maximum.
	OpMax = math.Max
	// OpMin takes the minimum.
	OpMin = math.Min
)
