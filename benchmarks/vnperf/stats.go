package main

import (
	"math"
	"sort"
)

// summary is what every end-to-end metric prints: the median over the timed
// repetitions with its quartiles, minimum and sample count.
type summary struct {
	Median, Q1, Q3, Min float64
	N                   int
}

// summarize computes the summary of xs (which it does not modify).
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sortedCopy(xs)
	return summary{
		Median: quantileSorted(s, 0.5),
		Q1:     quantileSorted(s, 0.25),
		Q3:     quantileSorted(s, 0.75),
		Min:    s[0],
		N:      len(s),
	}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs, 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantileSorted(sortedCopy(xs), 0.5)
}

// quantileSorted interpolates linearly between the order statistics of the
// sorted slice s, the same rule as Python's statistics.quantiles with
// method="inclusive".
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// percentileNearestRank returns the smallest sample with at least fraction q
// of the samples at or below it. Latency percentiles use it so that every
// reported value is a latency some operation actually had, and so that the
// result is an exact function of the sample set.
func percentileNearestRank(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// relSpread is the distance between two values as a share of the first —
// the figure the -aa mode compares with a metric's bound.
func relSpread(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(b-a) / math.Abs(a)
}
