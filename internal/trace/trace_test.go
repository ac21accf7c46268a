package trace

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"virtnet/internal/sim"
)

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Inc("a")
	c.Add("b", 5)
	c.Inc("a")
	if c.Get("a") != 2 || c.Get("b") != 5 {
		t.Fatalf("a=%d b=%d", c.Get("a"), c.Get("b"))
	}
	if c.Get("missing") != 0 {
		t.Fatal("missing counter not zero")
	}
	if kv := c.Snapshot(); len(kv) != 2 || kv[0].Name != "a" || kv[1].Name != "b" {
		t.Fatalf("snapshot = %v, want first-touch order", kv)
	}
}

// TestCounterHandles: a handle and its name are one counter. The same
// increments in the same order, made through handles in one set and by name
// in another, leave equal snapshots; a handle that was resolved but never
// touched appears in neither; and caller-owned handles (NewCountersOver)
// behave exactly like the ones the set makes.
func TestCounterHandles(t *testing.T) {
	byName := NewCounters()
	byHandle := NewCounters()
	var block [3]Counter
	over := NewCountersOver([]string{"tx", "rx", "idle"}, block[:])

	tx, rx, idle, bytes := byHandle.Counter("tx"), byHandle.Counter("rx"), byHandle.Counter("idle"), byHandle.Counter("bytes")
	_ = idle
	_ = over.Counter("bytes") // resolved in the third set too, touched below
	for i := 0; i < 3; i++ {
		byName.Inc("rx")
		rx.Inc()
		block[1].Inc()
	}
	byName.Add("bytes", 0) // a zero Add creates the key
	bytes.Add(0)
	over.Counter("bytes").Add(0)
	byName.Add("tx", 40)
	tx.Add(40)
	block[0].Add(40)
	byName.Inc("rx")
	byHandle.Inc("rx") // by name into a set driven by handles: same counter
	over.Inc("rx")     // by name into caller-owned storage: same counter

	want := []CounterKV{{"rx", 4}, {"bytes", 0}, {"tx", 40}}
	for name, c := range map[string]*Counters{"by name": byName, "by handle": byHandle, "over": over} {
		got := c.Snapshot()
		if len(got) != len(want) {
			t.Fatalf("%s: snapshot %v, want %v (an untouched handle must be absent)", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: snapshot %v, want %v", name, got, want)
			}
		}
		if c.Get("idle") != 0 || c.Get("rx") != 4 || !slices.Equal(got, byName.Snapshot()) {
			t.Fatalf("%s: idle=%d rx=%d\n%v", name, c.Get("idle"), c.Get("rx"), got)
		}
	}
	if block[1].n != 4 || byHandle.Counter("rx") != rx || over.Counter("rx") != &block[1] {
		t.Fatal("a name resolved to a second store")
	}
	if avg := testing.AllocsPerRun(100, func() { rx.Inc(); block[0].Add(2) }); avg != 0 {
		t.Fatalf("a handle increment allocates %.1f times", avg)
	}
}

// TestCountersOverFirstTouchAllocates0: a set over caller-owned handles
// reserves room for all of them, so first touching each one (as a NIC does,
// counter by counter, during its run) allocates nothing, and Snapshot still
// lists them in first-touch order.
func TestCountersOverFirstTouchAllocates0(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	touch := []int{7, 2, 9, 0, 5, 1, 8, 3, 6, 4}
	const runs = 20
	blocks := make([][10]Counter, runs+1) // AllocsPerRun adds one warm-up run
	sets := make([]*Counters, len(blocks))
	for k := range blocks {
		sets[k] = NewCountersOver(names, blocks[k][:])
	}
	k := 0
	avg := testing.AllocsPerRun(runs, func() {
		for i, j := range touch {
			blocks[k][j].Add(int64(i))
		}
		k++
	})
	if avg != 0 {
		t.Fatalf("first touching %d fixed handles allocates %.2f times", len(touch), avg)
	}
	for k, c := range sets {
		snap := c.Snapshot()
		if len(snap) != len(touch) {
			t.Fatalf("set %d: snapshot %v, want all %d counters", k, snap, len(touch))
		}
		for i, j := range touch {
			if snap[i] != (CounterKV{names[j], int64(i)}) {
				t.Fatalf("set %d: snapshot %v, want first-touch order %v", k, snap, touch)
			}
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	h := NewHist()
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
	if h.Mean() != 50 {
		t.Fatalf("mean = %d", h.Mean())
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 100 {
		t.Fatalf("min/max = %d/%d", h.Quantile(0), h.Quantile(1))
	}
}

func TestHistEmpty(t *testing.T) {
	h := NewHist()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty hist should return zeros")
	}
	if !strings.Contains(h.Buckets(5), "no samples") {
		t.Fatal("empty buckets output wrong")
	}
}

func TestBimodalSplit(t *testing.T) {
	h := NewHist()
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
	h := NewHist()
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
		h := NewHist()
		for _, v := range vals {
			h.Observe(sim.Duration(v))
		}
		prev := sim.Duration(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			cur := h.Quantile(q)
			if cur < prev || cur < slices.Min(h.samples) || cur > slices.Max(h.samples) {
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
	tl := NewTimeline(100, 10)
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
	h := NewHist()
	for _, v := range []sim.Duration{5, 1, 9, 3} {
		h.Observe(v)
	}
	if h.Count() != 4 || len(h.Samples()) != 4 {
		t.Fatalf("count/retained = %d/%d", h.Count(), len(h.Samples()))
	}
	if h.Mean() != 4 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 9 {
		t.Fatalf("quantiles broken: %v %v", h.Quantile(0), h.Quantile(1))
	}
}

// TestSummaryZeroSafe: the summary statistics of an empty histogram render
// without zero-division garbage, and of two samples interpolate.
func TestSummaryZeroSafe(t *testing.T) {
	h := NewHist()
	if s := h.Buckets(4); strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Fatalf("zero-sample rendering leaks garbage: %q", s)
	}
	h.Observe(10)
	h.Observe(30)
	// Interpolated quantiles: p50 of {10,30} is the midpoint, p99 sits
	// 98% of the way between them (10 + 0.98*20 = 29.6, rounded to 30).
	got := []sim.Duration{h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Quantile(0.999), h.Quantile(0), h.Quantile(1)}
	if want := []sim.Duration{20, 20, 30, 30, 10, 30}; !slices.Equal(got, want) {
		t.Fatalf("mean, p50, p99, p999, min, max = %v, want %v", got, want)
	}
	if h.Quantile(-0.5) != 10 || h.Quantile(2.0) != 30 {
		t.Fatalf("out-of-range quantiles not clamped: %v %v", h.Quantile(-0.5), h.Quantile(2.0))
	}
}

func TestQuantileInterpolation(t *testing.T) {
	h := NewHist()
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
	if len(snap) != 2 || snap[0] != (CounterKV{"z", 2}) || snap[1] != (CounterKV{"a", 3}) {
		t.Fatalf("snapshot = %v, want first-touch order [z=2 a=3]", snap)
	}
}
