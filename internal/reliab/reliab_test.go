package reliab

import (
	"strings"
	"testing"

	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

func TestCtxWireRoundTrip(t *testing.T) {
	ctx := Ctx{Deadline: sim.Time(12345678), IdemKey: 0xDEADBEEF}
	wire := make([]byte, HeaderLen+3)
	ctx.Encode(wire)
	copy(wire[HeaderLen:], []byte{1, 2, 3})
	got, body := DecodeCtx(wire)
	if got != ctx {
		t.Fatalf("round trip: got %+v want %+v", got, ctx)
	}
	if len(body) != 3 || body[0] != 1 || body[2] != 3 {
		t.Fatalf("body corrupted: %v", body)
	}
	if ctx.Expired(sim.Time(12345677)) || !ctx.Expired(sim.Time(12345678)) {
		t.Fatal("Expired boundary wrong")
	}
	none := Ctx{}
	if none.Expired(1 << 40) {
		t.Fatal("no-deadline ctx must never expire")
	}
}

func TestBudgetRefill(t *testing.T) {
	b := NewBudget(2, 100*sim.Millisecond)
	now := sim.Time(0)
	if !b.Allow(now) || !b.Allow(now) {
		t.Fatal("initial burst denied")
	}
	if b.Allow(now) {
		t.Fatal("empty bucket allowed a use")
	}
	now = now.Add(100 * sim.Millisecond)
	if !b.Allow(now) {
		t.Fatal("refilled token denied")
	}
	if b.Allow(now) {
		t.Fatal("only one token should have refilled")
	}
	// Long idle refills back to capacity, not beyond.
	now = now.Add(10 * sim.Second)
	got := 0
	for b.Allow(now) {
		got++
	}
	if got != 2 {
		t.Fatalf("tokens after idle = %d, want capacity 2", got)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	m := NewMetrics()
	b := NewBreaker(m)
	now := sim.Time(0)
	for i := 0; i < breakerThreshold; i++ {
		if !b.Allow(now) {
			t.Fatal("closed breaker denied a call")
		}
		b.Failure(now)
	}
	if b.State() != Open {
		t.Fatalf("state after threshold failures = %v", b.State())
	}
	if b.Allow(now.Add(breakerCooldown / 2)) {
		t.Fatal("open breaker allowed a call before cooldown")
	}
	now = now.Add(breakerCooldown)
	if !b.Allow(now) {
		t.Fatal("cooldown elapsed but no probe")
	}
	if b.State() != HalfOpen || b.Allow(now) {
		t.Fatal("half-open must admit exactly one probe")
	}
	b.Failure(now) // probe failed: reopen with doubled cooldown
	if b.State() != Open {
		t.Fatal("failed probe did not reopen")
	}
	if b.Allow(now.Add(3 * breakerCooldown / 2)) {
		t.Fatal("cooldown did not double after failed probe")
	}
	now = now.Add(2 * breakerCooldown)
	if !b.Allow(now) {
		t.Fatal("second probe not admitted")
	}
	b.Success()
	if b.State() != Closed || !b.Allow(now) {
		t.Fatal("successful probe did not close the breaker")
	}
	if m.Get("breaker_open") != 2 || m.Get("breaker_close") != 1 {
		t.Fatalf("counters: open=%d close=%d", m.Get("breaker_open"), m.Get("breaker_close"))
	}
}

func TestAdmitQueueShedsExpiredFirst(t *testing.T) {
	m := NewMetrics()
	q := NewAdmitQueue(2, m)
	now := sim.Time(0)
	if _, ok := q.Admit(now, Ctx{Deadline: 100}, "a"); !ok {
		t.Fatal("admit a")
	}
	if _, ok := q.Admit(now, Ctx{Deadline: 5000}, "b"); !ok {
		t.Fatal("admit b")
	}
	// Full of unexpired work: reject.
	if _, ok := q.Admit(sim.Time(50), Ctx{Deadline: 5000}, "c"); ok {
		t.Fatal("overload not signalled")
	}
	// After a's deadline, admitting evicts it rather than rejecting.
	evicted, ok := q.Admit(sim.Time(200), Ctx{Deadline: 5000}, "d")
	if !ok || len(evicted) != 1 || evicted[0].V.(string) != "a" {
		t.Fatalf("evict: ok=%v evicted=%v", ok, evicted)
	}
	if m.Get("shed") != 1 {
		t.Fatalf("shed counter = %d", m.Get("shed"))
	}
	if it, ok := q.Pop(); !ok || it.V.(string) != "b" {
		t.Fatalf("pop order wrong: %v", it.V)
	}
	if it, ok := q.Pop(); !ok || it.V.(string) != "d" {
		t.Fatalf("pop order wrong: %v", it.V)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestIdemCacheBoundedFIFO(t *testing.T) {
	m := NewMetrics()
	c := NewIdemCache[string](2, m)
	c.Put(IdemKey{1, 1}, "one")
	c.Put(IdemKey{1, 2}, "two")
	c.Put(IdemKey{1, 3}, "three") // evicts {1,1}
	if _, ok := c.Get(IdemKey{1, 1}); ok {
		t.Fatal("oldest entry not evicted")
	}
	if v, ok := c.Get(IdemKey{1, 2}); !ok || v != "two" {
		t.Fatal("retained entry lost")
	}
	if len(c.vals) != 2 {
		t.Fatalf("len = %d", len(c.vals))
	}
	if m.Get("idem_hits") != 1 {
		t.Fatalf("idem_hits = %d", m.Get("idem_hits"))
	}
	// The ring wraps: re-putting a held key refreshes its value but not its
	// place, and eviction keeps going oldest first.
	c.Put(IdemKey{1, 2}, "two'")
	c.Put(IdemKey{1, 4}, "four") // evicts {1,2}
	c.Put(IdemKey{1, 5}, "five") // evicts {1,3}
	for k, want := range map[uint64]string{2: "", 3: "", 4: "four", 5: "five"} {
		if v, ok := c.Get(IdemKey{1, k}); ok != (want != "") || v != want {
			t.Fatalf("key %d: got %q, %v; want %q", k, v, ok, want)
		}
	}
}

// TestIdemCacheSteadyStateAllocFree: once the ring is full, a put that
// evicts allocates nothing — no boxing of the value, no FIFO reslice.
func TestIdemCacheSteadyStateAllocFree(t *testing.T) {
	type result struct {
		status uint64
		data   []byte
	}
	c := NewIdemCache[result](64, nil)
	data := []byte("ok")
	k := uint64(0)
	put := func() {
		k++
		c.Put(IdemKey{Client: 1, Key: k}, result{status: k, data: data})
	}
	for i := 0; i < 1024; i++ {
		put()
	}
	if avg := testing.AllocsPerRun(1000, put); avg != 0 {
		t.Fatalf("a full cache allocates %.2f times per put, want 0", avg)
	}
}

// TestReliabilityDashboardSection is the snapshot test for the dashboard's
// reliability section: counters registered under the "reliab" prefix
// render there, and nothing else leaks in.
func TestReliabilityDashboardSection(t *testing.T) {
	e := sim.NewEngine(1)
	r := obs.NewRegistry(e)
	m := NewMetrics()
	m.Register(r)
	r.AddGauge("other.gauge", func() float64 { return 9 })

	m.Inc("shed")
	m.Add("stale_reclaimed", 3)
	m.Inc("breaker_open")
	m.Inc("deadline_exceeded")

	got := r.DashboardSection("reliab")
	want := "== reliab @ 0ns ==\n" +
		"reliab.breaker_open                                   1\n" +
		"reliab.deadline_exceeded                              1\n" +
		"reliab.shed                                           1\n" +
		"reliab.stale_reclaimed                                3\n"
	if got != want {
		t.Fatalf("dashboard section snapshot mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
	if strings.Contains(got, "other.gauge") {
		t.Fatal("section leaked foreign metrics")
	}
}
