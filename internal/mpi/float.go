package mpi

// OpSum is the reduction operator that adds.
var OpSum = func(a, b float64) float64 { return a + b }
