// Package serve is the serving-scale workload layer: open-loop load
// generation driven by arrival processes, three serving applications
// (sharded KV store, parameter server, inference gateway) built on
// internal/rpc + internal/reliab, and SLO accounting (goodput,
// p50/p99/p999, deadline-miss rate) through internal/obs.
//
// Everything in the tree before this package is HPC-shaped — lockstep
// ranks in closed loops, where offered load self-limits to completion
// rate. Internet serving is the opposite: arrivals are an external
// process that does not slow down because the system is struggling, which
// is what produces the classic goodput knee and tail-latency collapse
// this package's experiments measure. The paper's §5 overcommit story
// (more endpoints than NI frames, quota-driven paging) is retold here at
// serving scale via tenant interference on shared NIs.
package serve

import (
	"math/rand"

	"virtnet/internal/sim"
)

// splitmix64 is the same avalanche mix the sharded engine uses to derive
// per-shard PRNGs; serve reuses it to derive per-client streams.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// DeriveRNG returns a PRNG for (seed, stream). Every client derives its
// arrival and workload streams this way — from the experiment seed and the
// client's global index, never from a shard engine's PRNG — so arrival
// schedules are byte-identical at any shard count.
func DeriveRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix64(uint64(seed)*0x9E3779B97F4A7C15 + stream))))
}

// Arrival generates inter-arrival gaps for one open-loop client. Gap may
// depend on the current virtual time (diurnal ramps, MMPP state dwell) but
// must be deterministic given the construction seed and the call sequence.
type Arrival interface {
	// Gap returns the time until the next arrival after an arrival at now.
	Gap(now sim.Time) sim.Duration
}

// Poisson is a homogeneous Poisson process: exponential gaps with the
// given mean.
type Poisson struct {
	mean float64 // mean gap in nanoseconds
	rng  *rand.Rand
}

// NewPoisson returns a Poisson arrival process with mean rate lambda
// (requests per simulated second).
func NewPoisson(lambda float64, rng *rand.Rand) *Poisson {
	return &Poisson{mean: float64(sim.Second) / lambda, rng: rng}
}

func (a *Poisson) Gap(_ sim.Time) sim.Duration {
	return expGap(a.rng, a.mean)
}

// expGap draws an exponential gap with the given mean, clamped to ≥1ns so
// the schedule always advances.
func expGap(rng *rand.Rand, mean float64) sim.Duration {
	g := sim.Duration(rng.ExpFloat64() * mean)
	if g < 1 {
		g = 1
	}
	return g
}

// MMPP2 is a two-state Markov-modulated Poisson process: a "calm" state
// and a "burst" state, each with its own rate, with exponentially
// distributed dwell times. State transitions are evaluated lazily at
// arrival epochs (the standard discrete approximation), so the whole
// schedule remains a pure function of the seed.
type MMPP2 struct {
	mean     [2]float64 // per-state mean gap, ns
	dwell    [2]float64 // per-state mean dwell, ns
	state    int
	switchAt sim.Time
	rng      *rand.Rand
}

// NewMMPP2 builds a bursty arrival process: calm rate lambda0 for
// exponentially-dwelled periods of mean dwell0, bursting to lambda1 for
// mean dwell1.
func NewMMPP2(lambda0, lambda1 float64, dwell0, dwell1 sim.Duration, rng *rand.Rand) *MMPP2 {
	return &MMPP2{
		mean:  [2]float64{float64(sim.Second) / lambda0, float64(sim.Second) / lambda1},
		dwell: [2]float64{float64(dwell0), float64(dwell1)},
		rng:   rng,
	}
}

func (a *MMPP2) Gap(now sim.Time) sim.Duration {
	if a.switchAt == 0 {
		a.switchAt = now.Add(expGap(a.rng, a.dwell[a.state]))
	}
	for now >= a.switchAt {
		a.state = 1 - a.state
		a.switchAt = a.switchAt.Add(expGap(a.rng, a.dwell[a.state]))
	}
	return expGap(a.rng, a.mean[a.state])
}

// Diurnal is a Poisson process whose rate ramps piecewise-linearly from
// base to peak and back over each period — a compressed day. The rate at
// the arrival epoch drives the next gap (a lazy approximation of a
// non-homogeneous Poisson process that keeps the schedule seed-pure).
type Diurnal struct {
	base, peak float64 // rates, req/s
	period     float64 // ns
	rng        *rand.Rand
}

// NewDiurnal returns a ramping arrival process: rate base at phase 0,
// rising linearly to peak at half period, falling back by the full period.
func NewDiurnal(base, peak float64, period sim.Duration, rng *rand.Rand) *Diurnal {
	return &Diurnal{base: base, peak: peak, period: float64(period), rng: rng}
}

// RateAt returns the instantaneous target rate at time t.
func (a *Diurnal) RateAt(t sim.Time) float64 {
	phase := float64(t) / a.period
	phase -= float64(int(phase)) // fractional period
	tri := 2 * phase             // 0→2 over the period
	if tri > 1 {
		tri = 2 - tri // triangle wave: 0→1→0
	}
	return a.base + (a.peak-a.base)*tri
}

func (a *Diurnal) Gap(now sim.Time) sim.Duration {
	return expGap(a.rng, float64(sim.Second)/a.RateAt(now))
}
