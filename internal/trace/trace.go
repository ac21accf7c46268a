// Package trace provides lightweight instrumentation for the simulated
// cluster: named counters, duration histograms (used to show the bimodal
// client latencies of §6.4.1), and per-interval timelines.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"virtnet/internal/sim"
)

// Counters is a set of named monotonic counters. The simulation itself is
// single-threaded, but observers (metric snapshots, daemon status queries)
// may read from other goroutines, so access is mutex-guarded.
//
// A counter's value lives in its handle, and the set has one store: a map
// from name to handle, plus (for NewCountersOver) a block of handles the
// caller laid out itself. Inc/Add by name resolve the handle and go through
// it, so a name and a handle never count apart.
type Counters struct {
	mu sync.Mutex
	// m holds the handles made by name; order lists every touched handle,
	// from m or from fixed, in first-touch order.
	m     map[string]*Counter
	order []*Counter
	// fixed is caller-owned storage for handles that never enter m.
	fixed []Counter
}

// Counter is a handle on one counter of a set: a hot path resolves it once
// and increments without hashing the name. A handle enters Names and
// Snapshot at its first Inc or Add (of any amount, zero included), exactly
// as a name does, so resolving handles up front adds no keys.
type Counter struct {
	set  *Counters
	name string
	n    int64
	live bool
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]*Counter)}
}

// NewCountersOver returns a counter set whose counters names[i] are the
// handles[i] — storage the caller owns, typically an array inside the struct
// that increments them, so a thousand such structs resolve their handles
// without one allocation each. Any other name is made on demand as in
// NewCounters. order is reserved for every fixed handle, so first touching
// them during a run grows no slice.
func NewCountersOver(names []string, handles []Counter) *Counters {
	if len(names) != len(handles) {
		panic("trace: NewCountersOver with mismatched names and handles")
	}
	c := NewCounters()
	c.fixed = handles
	c.order = make([]*Counter, 0, len(handles))
	for i := range handles {
		handles[i] = Counter{set: c, name: names[i]}
	}
	return c
}

// find returns the handle for name, or nil if none exists. Caller holds mu.
func (c *Counters) find(name string) *Counter {
	if h := c.m[name]; h != nil {
		return h
	}
	for i := range c.fixed {
		if c.fixed[i].name == name {
			return &c.fixed[i]
		}
	}
	return nil
}

// resolve is find, making the handle if needed. Caller holds mu.
func (c *Counters) resolve(name string) *Counter {
	h := c.find(name)
	if h == nil {
		h = &Counter{set: c, name: name}
		c.m[name] = h
	}
	return h
}

// Counter returns the handle for name, creating it untouched if needed.
func (c *Counters) Counter(name string) *Counter {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resolve(name)
}

// add is Add with the set's lock held.
func (h *Counter) add(n int64) {
	if !h.live {
		h.live = true
		h.set.order = append(h.set.order, h)
	}
	h.n += n
}

// Add increments the counter by n.
func (h *Counter) Add(n int64) {
	h.set.mu.Lock()
	h.add(n)
	h.set.mu.Unlock()
}

// Inc increments the counter by one.
func (h *Counter) Inc() { h.Add(1) }

// Add increments counter name by n.
func (c *Counters) Add(name string, n int64) {
	c.mu.Lock()
	c.resolve(name).add(n)
	c.mu.Unlock()
}

// Inc increments counter name by one.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Get returns the value of counter name (zero if never touched).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h := c.find(name); h != nil {
		return h.n
	}
	return 0
}

// CounterKV is one counter's name and value, as returned by Snapshot.
type CounterKV struct {
	Name  string
	Value int64
}

// Snapshot returns every counter in first-touch order. The order is
// deterministic per seed (it is the order the code first touched each
// counter), which makes snapshots safe to feed into golden outputs.
func (c *Counters) Snapshot() []CounterKV {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CounterKV, 0, len(c.order))
	for _, h := range c.order {
		out = append(out, CounterKV{Name: h.name, Value: h.n})
	}
	return out
}

// Hist is a histogram over sim.Duration samples. It keeps every raw sample
// (the experiments record at most a few hundred thousand), so quantiles are
// exact and modality analysis is available.
type Hist struct {
	samples []sim.Duration
	sorted  bool

	sum int64 // of samples
}

// NewHist returns an empty histogram that retains every sample.
func NewHist() *Hist { return &Hist{} }

// Observe records one sample.
func (h *Hist) Observe(d sim.Duration) {
	h.sum += int64(d)
	h.samples = append(h.samples, d)
	h.sorted = false
}

// Count returns the number of observed samples.
func (h *Hist) Count() int { return len(h.samples) }

// Samples returns every observed sample — callers merging per-client
// histograms re-observe these into the combined histogram. The returned
// slice is shared; do not mutate.
func (h *Hist) Samples() []sim.Duration { return h.samples }

func (h *Hist) sortSamples() {
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) of the samples using
// linear interpolation between adjacent order statistics: the quantile
// position is q·(n−1), and a fractional position blends the two neighboring
// samples proportionally (the "linear" definition used by numpy and R type
// 7).
func (h *Hist) Quantile(q float64) sim.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	h.sortSamples()
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[len(h.samples)-1]
	}
	pos := q * float64(len(h.samples)-1)
	i := int(pos)
	frac := pos - float64(i)
	if frac == 0 || i+1 >= len(h.samples) {
		return h.samples[i]
	}
	lo, hi := h.samples[i], h.samples[i+1]
	return lo + sim.Duration(frac*float64(hi-lo)+0.5)
}

// Mean returns the mean sample value.
func (h *Hist) Mean() sim.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	return sim.Duration(h.sum / int64(len(h.samples)))
}

// BimodalSplit splits samples around threshold and returns the fraction and
// mean of each mode. The §6.4.1 analysis uses this to show that requests
// hitting resident endpoints complete quickly while others pay remapping and
// retransmission delays.
func (h *Hist) BimodalSplit(threshold sim.Duration) (fastFrac float64, fastMean, slowMean sim.Duration) {
	if len(h.samples) == 0 {
		return 0, 0, 0
	}
	var nf, ns int
	var sf, ss int64
	for _, s := range h.samples {
		if s <= threshold {
			nf++
			sf += int64(s)
		} else {
			ns++
			ss += int64(s)
		}
	}
	if nf > 0 {
		fastMean = sim.Duration(sf / int64(nf))
	}
	if ns > 0 {
		slowMean = sim.Duration(ss / int64(ns))
	}
	return float64(nf) / float64(len(h.samples)), fastMean, slowMean
}

// Buckets renders a log-scale ASCII histogram with n buckets.
func (h *Hist) Buckets(n int) string {
	if len(h.samples) == 0 || n <= 0 {
		return "(no samples)\n"
	}
	h.sortSamples()
	lo := float64(h.samples[0])
	hi := float64(h.samples[len(h.samples)-1])
	if lo <= 0 {
		lo = 1
	}
	if hi <= lo {
		hi = lo * 2
	}
	logLo, logHi := math.Log(lo), math.Log(hi)
	counts := make([]int, n)
	for _, s := range h.samples {
		v := float64(s)
		if v < lo {
			v = lo
		}
		i := int(float64(n) * (math.Log(v) - logLo) / (logHi - logLo + 1e-12))
		if i >= n {
			i = n - 1
		}
		counts[i]++
	}
	peak := 1
	for _, c := range counts {
		peak = max(peak, c)
	}
	var b strings.Builder
	for i, c := range counts {
		lower := sim.Duration(math.Exp(logLo + (logHi-logLo)*float64(i)/float64(n)))
		bar := strings.Repeat("#", c*50/peak)
		fmt.Fprintf(&b, "%12v %6d %s\n", lower, c, bar)
	}
	return b.String()
}

// Timeline accumulates samples into fixed time intervals, for reporting how
// a rate evolves over a run (e.g. §6.4.1's sustained re-mapping rate).
type Timeline struct {
	start    sim.Time
	interval sim.Duration
	buckets  []float64
}

// NewTimeline starts a timeline at start with the given bucket width.
func NewTimeline(start sim.Time, interval sim.Duration) *Timeline {
	return &Timeline{start: start, interval: interval}
}

// Add accumulates v into the bucket containing time t.
func (tl *Timeline) Add(t sim.Time, v float64) {
	if t < tl.start {
		return
	}
	i := int(t.Sub(tl.start) / tl.interval)
	for len(tl.buckets) <= i {
		tl.buckets = append(tl.buckets, 0)
	}
	tl.buckets[i] += v
}

// Series returns the per-bucket totals.
func (tl *Timeline) Series() []float64 { return append([]float64(nil), tl.buckets...) }

// Rates returns per-bucket totals divided by the bucket width in seconds.
func (tl *Timeline) Rates() []float64 {
	out := make([]float64, len(tl.buckets))
	w := tl.interval.Seconds()
	for i, v := range tl.buckets {
		out[i] = v / w
	}
	return out
}
