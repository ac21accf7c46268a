// The cases below test obs's counter sets, histograms and timelines. They
// stay here, under their old package, until ROADMAP item 5(d) deletes the
// NewCounters shim and moves them into obs.
package trace

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Inc("a")
	c.Add("b", 5)
	c.Inc("a")
	c.Add("zero", 0) // a zero Add creates the key
	if c.Get("a") != 2 || c.Get("b") != 5 {
		t.Fatalf("a=%d b=%d", c.Get("a"), c.Get("b"))
	}
	if c.Get("missing") != 0 {
		t.Fatal("missing counter not zero")
	}
	want := []obs.CounterKV{{Name: "a", Value: 2}, {Name: "b", Value: 5}, {Name: "zero", Value: 0}}
	if kv := c.Snapshot(); !slices.Equal(kv, want) {
		t.Fatalf("snapshot = %v, want %v in first-touch order", kv, want)
	}
}

func TestHistQuantiles(t *testing.T) {
	h := obs.NewHist()
	for i := 1; i <= 100; i++ {
		h.Observe(sim.Duration(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("q0 = %d", q)
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("q1 = %d", q)
	}
	med := h.Quantile(0.5)
	if med < 45 || med > 55 {
		t.Fatalf("median = %d", med)
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 100 {
		t.Fatalf("min/max = %d/%d", h.Quantile(0), h.Quantile(1))
	}
}

func TestHistEmpty(t *testing.T) {
	h := obs.NewHist()
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty hist should return zeros")
	}
	if !strings.Contains(h.Buckets(5), "no samples") {
		t.Fatal("empty buckets output wrong")
	}
}

func TestBimodalSplit(t *testing.T) {
	h := obs.NewHist()
	// Fast mode around 30us, slow mode around 10ms.
	for i := 0; i < 70; i++ {
		h.Observe(30 * sim.Microsecond)
	}
	for i := 0; i < 30; i++ {
		h.Observe(10 * sim.Millisecond)
	}
	frac, fast, slow := h.BimodalSplit(sim.Millisecond)
	if frac < 0.69 || frac > 0.71 {
		t.Fatalf("fast fraction = %f, want 0.70", frac)
	}
	if fast != 30*sim.Microsecond {
		t.Fatalf("fast mean = %v", fast)
	}
	if slow != 10*sim.Millisecond {
		t.Fatalf("slow mean = %v", slow)
	}
}

func TestHistBuckets(t *testing.T) {
	h := obs.NewHist()
	for i := 1; i <= 1000; i++ {
		h.Observe(sim.Duration(i * 1000))
	}
	out := h.Buckets(8)
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 8 {
		t.Fatalf("bucket lines:\n%s", out)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		h := obs.NewHist()
		for _, v := range vals {
			h.Observe(sim.Duration(v))
		}
		prev := sim.Duration(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			cur := h.Quantile(q)
			if cur < prev || cur < slices.Min(h.Samples()) || cur > slices.Max(h.Samples()) {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: counters sum correctly under arbitrary add sequences.
func TestCounterSumProperty(t *testing.T) {
	f := func(adds []int16) bool {
		c := NewCounters()
		var want int64
		for _, a := range adds {
			c.Add("x", int64(a))
			want += int64(a)
		}
		return c.Get("x") == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeline(t *testing.T) {
	tl := obs.NewTimeline(100, 10)
	tl.Add(100, 1)
	tl.Add(105, 2)
	tl.Add(115, 4)
	tl.Add(139, 8)
	tl.Add(50, 99) // before start: ignored
	s := tl.Series()
	want := []float64{3, 4, 0, 8}
	if len(s) != len(want) {
		t.Fatalf("series = %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("series = %v, want %v", s, want)
		}
	}
	r := tl.Rates()
	if r[0] != 3/sim.Duration(10).Seconds() {
		t.Fatalf("rates = %v", r)
	}
}

func TestHistUnboundedStillExact(t *testing.T) {
	h := obs.NewHist()
	for _, v := range []sim.Duration{5, 1, 9, 3} {
		h.Observe(v)
	}
	if h.Count() != 4 || len(h.Samples()) != 4 {
		t.Fatalf("count/retained = %d/%d", h.Count(), len(h.Samples()))
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 9 {
		t.Fatalf("quantiles broken: %v %v", h.Quantile(0), h.Quantile(1))
	}
}

// TestSummaryZeroSafe: the summary statistics of an empty histogram render
// without zero-division garbage, and of two samples interpolate.
func TestSummaryZeroSafe(t *testing.T) {
	h := obs.NewHist()
	if s := h.Buckets(4); strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Fatalf("zero-sample rendering leaks garbage: %q", s)
	}
	h.Observe(10)
	h.Observe(30)
	// Interpolated quantiles: p50 of {10,30} is the midpoint, p99 sits
	// 98% of the way between them (10 + 0.98*20 = 29.6, rounded to 30).
	got := []sim.Duration{h.Quantile(0.5), h.Quantile(0.99), h.Quantile(0.999), h.Quantile(0), h.Quantile(1)}
	if want := []sim.Duration{20, 30, 30, 10, 30}; !slices.Equal(got, want) {
		t.Fatalf("p50, p99, p999, min, max = %v, want %v", got, want)
	}
	if h.Quantile(-0.5) != 10 || h.Quantile(2.0) != 30 {
		t.Fatalf("out-of-range quantiles not clamped: %v %v", h.Quantile(-0.5), h.Quantile(2.0))
	}
}

func TestQuantileInterpolation(t *testing.T) {
	h := obs.NewHist()
	for _, v := range []sim.Duration{100, 200, 300, 400} {
		h.Observe(v)
	}
	cases := []struct {
		q    float64
		want sim.Duration
	}{
		{0, 100},
		{1, 400},
		{0.5, 250},       // position 1.5: midpoint of 200 and 300
		{0.25, 175},      // position 0.75: 100 + 0.75*(200-100)
		{1.0 / 3.0, 200}, // position 1.0: exact order statistic
		{0.99, 397},      // position 2.97: 300 + 0.97*(400-300)
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestCountersSnapshot(t *testing.T) {
	c := NewCounters()
	c.Inc("z")
	c.Add("a", 3)
	c.Inc("z")
	snap := c.Snapshot()
	if len(snap) != 2 || snap[0] != (obs.CounterKV{Name: "z", Value: 2}) || snap[1] != (obs.CounterKV{Name: "a", Value: 3}) {
		t.Fatalf("snapshot = %v, want first-touch order [z=2 a=3]", snap)
	}
}
