package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"virtnet/internal/sim"
)

// Counters is a set of named monotonic counters in first-touch order; its
// zero value is ready to use. A layer keeps one by value and registers it
// with Registry.AddCounters. A set holds a handful of names (the segment
// driver's, at 20, is the largest), so Add finds a name by scanning the
// list, and a name already touched costs a scan and no allocation. The NI
// keeps its own counters as plain integers (nic.Counters) and shares only
// CounterKV, the shape every counter snapshot takes.
//
// Access is mutex-guarded. Observers (metric snapshots, daemon status
// queries) may read from other goroutines, and one set can have writers on
// more than one shard: migrate.Directory is the name service of every
// bundle in a vnet cluster, and serve's interference scenario runs that
// cluster at 4 shards, so dir.resolve is counted from each shard's
// goroutine.
type Counters struct {
	mu sync.Mutex
	kv []CounterKV
}

// CounterKV is one counter's name and value, as returned by Snapshot.
type CounterKV struct {
	Name  string
	Value int64
}

// index returns the position of name in c.kv, or -1; c.mu must be held.
func (c *Counters) index(name string) int {
	for i := range c.kv {
		if c.kv[i].Name == name {
			return i
		}
	}
	return -1
}

// Add increments counter name by n. A counter enters Snapshot at its first
// Add, of any amount, zero included.
func (c *Counters) Add(name string, n int64) {
	c.mu.Lock()
	i := c.index(name)
	if i < 0 {
		i = len(c.kv)
		c.kv = append(c.kv, CounterKV{Name: name})
	}
	c.kv[i].Value += n
	c.mu.Unlock()
}

// Inc increments counter name by one.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Get returns the value of counter name (zero if never touched).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := c.index(name); i >= 0 {
		return c.kv[i].Value
	}
	return 0
}

// Snapshot returns a copy of every counter in first-touch order. The order
// is deterministic per seed (it is the order the code first touched each
// counter), which makes snapshots safe to feed into golden outputs.
func (c *Counters) Snapshot() []CounterKV {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.kv)
}

// Hist is a histogram over sim.Duration samples. It keeps every raw sample
// (the experiments record at most a few hundred thousand), so quantiles are
// exact and modality analysis is available.
type Hist struct {
	samples []sim.Duration
	sorted  bool
}

// NewHist returns an empty histogram that retains every sample.
func NewHist() *Hist { return &Hist{} }

// Observe records one sample.
func (h *Hist) Observe(d sim.Duration) {
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
