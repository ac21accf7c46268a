// Package trace is a shim: the simulator's counter sets, histograms and
// timelines live in obs. It keeps NewCounters only because the benchmark's
// trace.probe_inc_ns (benchmarks/vnperf/probes.go) calls it; ROADMAP item
// 5(d) moves that probe and deletes this package.
package trace

import "virtnet/internal/obs"

// NewCounters returns an empty counter set; a zero obs.Counters is the same.
func NewCounters() *obs.Counters { return new(obs.Counters) }
