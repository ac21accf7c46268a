package obs

import (
	"strings"
	"testing"

	"virtnet/internal/sim"
)

func newTestTracer(seed int64, sampleEvery, ringCap int) *Tracer {
	e := sim.NewEngine(seed)
	return NewTracer(e, 4, sampleEvery, ringCap)
}

func TestNilFlightSafe(t *testing.T) {
	var f *Flight
	f.Mark(StageWire, 10)
	f.AddHop("l", 1, 2)
	f.Note("x", 3)
	f.Finish(4)
	f.Drop(StageWire, "r", 5)
	if f.Done() {
		t.Fatal("nil flight reports done")
	}
	var tr *Tracer
	if tr.Sample(0, 1, KindShort, 0) != nil || tr.Child(7, 0, 1, KindReply, 0) != nil {
		t.Fatal("nil tracer produced a flight")
	}
	tr.SweepOpen("x", 0)
	if tr.Flights() != nil {
		t.Fatal("nil tracer sweep/flights not empty")
	}
}

func TestStagesContiguousAndSumToTotal(t *testing.T) {
	tr := newTestTracer(1, 1, 16)
	f := tr.Sample(0, 1, KindShort, 100)
	if f == nil {
		t.Fatal("sampleEvery=1 did not sample")
	}
	f.Mark(StageHostPost, 110)
	f.Mark(StageWRRWait, 130)
	f.Mark(StageNISend, 135)
	f.Mark(StageWire, 150)
	f.Mark(StageRemoteNI, 160)
	f.Mark(StageDeposit, 162)
	f.Mark(StageHostPoll, 170)
	f.Mark(StageHandler, 175)
	f.Finish(175)
	if !f.Done() {
		t.Fatal("not finalized")
	}
	// Contiguity: each interval starts where the previous ended.
	prev := f.Begin
	for _, r := range f.Stages {
		if r.Start != prev {
			t.Fatalf("stage %v starts at %d, previous ended at %d", r.Stage, r.Start, prev)
		}
		prev = r.End
	}
	var sum sim.Duration
	for _, d := range f.StageTotals() {
		sum += d
	}
	if sum != f.Total() || f.Total() != 75 {
		t.Fatalf("stage sum %d != total %d (want 75)", sum, f.Total())
	}
}

func TestMarkClampsBackwardTimestamps(t *testing.T) {
	tr := newTestTracer(1, 1, 16)
	f := tr.Sample(0, 1, KindShort, 100)
	f.Mark(StageHostPost, 120)
	f.Mark(StageWire, 90) // before the previous mark: clamped to zero length
	if got := f.Stages[1]; got.Start != 120 || got.End != 120 {
		t.Fatalf("backward mark not clamped: %+v", got)
	}
	// As in the real instrumentation, the final mark coincides with Finish.
	f.Mark(StageHandler, 130)
	f.Finish(130)
	var sum sim.Duration
	for _, d := range f.StageTotals() {
		sum += d
	}
	if sum != f.Total() {
		t.Fatalf("clamped flight inconsistent: sum %d total %d", sum, f.Total())
	}
}

func TestDropFinalizesWithReason(t *testing.T) {
	tr := newTestTracer(1, 1, 16)
	f := tr.Sample(0, 1, KindShort, 100)
	f.Mark(StageHostPost, 110)
	f.Drop(StageWire, "returned:unreachable", 500)
	if !f.Done() || f.DropReason != "returned:unreachable" || f.DropStage != StageWire {
		t.Fatalf("drop not recorded: %+v", f)
	}
	if tr.OpenCount() != 0 || tr.DroppedFlights() != 1 || tr.Finalized() != 1 {
		t.Fatalf("tracer counts wrong: open=%d dropped=%d fin=%d",
			tr.OpenCount(), tr.DroppedFlights(), tr.Finalized())
	}
	// Further marks after finalization must be ignored.
	f.Mark(StageHandler, 600)
	f.Note("late", 600)
	if f.lastStage() != StageWire || len(f.Notes) != 0 {
		t.Fatal("finalized flight still mutable")
	}
}

func TestHopAndNoteBounds(t *testing.T) {
	tr := newTestTracer(1, 1, 16)
	f := tr.Sample(0, 1, KindBulk, 0)
	for i := 0; i < maxHops+10; i++ {
		f.AddHop("l", sim.Time(i), sim.Time(i+1))
	}
	for i := 0; i < maxNotes+10; i++ {
		f.Note("n", sim.Time(i))
	}
	if len(f.Hops) != maxHops || len(f.Notes) != maxNotes {
		t.Fatalf("bounds not enforced: hops=%d notes=%d", len(f.Hops), len(f.Notes))
	}
}

func TestRingEvictsOldest(t *testing.T) {
	tr := newTestTracer(1, 1, 4)
	for i := 0; i < 7; i++ {
		f := tr.Sample(0, 1, KindShort, sim.Time(i))
		f.Finish(sim.Time(i + 1))
	}
	fl := tr.Flights()
	if len(fl) != 4 {
		t.Fatalf("retained %d, want ring cap 4", len(fl))
	}
	// Oldest-first of the last four: spans 4,5,6,7.
	for i, f := range fl {
		if f.Span != uint64(4+i) {
			t.Fatalf("flight %d has span %d, want %d", i, f.Span, 4+i)
		}
	}
	if tr.Finalized() != 7 {
		t.Fatalf("finalized=%d, want 7 (eviction must not lose the count)", tr.Finalized())
	}
}

func TestSamplingDeterministicPerSeed(t *testing.T) {
	decisions := func() []bool {
		tr := newTestTracer(42, 8, 16)
		var out []bool
		for i := 0; i < 200; i++ {
			f := tr.Sample(0, 1, KindShort, sim.Time(i))
			out = append(out, f != nil)
			f.Finish(sim.Time(i))
		}
		return out
	}
	a, b := decisions(), decisions()
	sampled := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sampling decision %d diverged between identical seeds", i)
		}
		if a[i] {
			sampled++
		}
	}
	if sampled == 0 || sampled == len(a) {
		t.Fatalf("1-in-8 sampling took %d of %d messages", sampled, len(a))
	}
}

func TestChildAlwaysRecorded(t *testing.T) {
	tr := newTestTracer(1, 1000000, 16)
	if f := tr.Child(99, 1, 0, KindReply, 5); f == nil {
		t.Fatal("child of a sampled trace must always be recorded")
	} else if f.TraceID != 99 {
		t.Fatalf("child trace id %d, want 99", f.TraceID)
	}
	if tr.Child(0, 1, 0, KindReply, 5) != nil {
		t.Fatal("trace id 0 (unsampled parent) must not open a child")
	}
}

func TestSweepOpenFinalizesEverything(t *testing.T) {
	tr := newTestTracer(1, 1, 16)
	for i := 0; i < 5; i++ {
		f := tr.Sample(0, 1, KindShort, sim.Time(i))
		f.Mark(StageHostPost, sim.Time(i+10))
	}
	if n := tr.OpenCount(); n != 5 {
		t.Fatalf("open=%d before sweep, want 5", n)
	}
	tr.SweepOpen("ni-reboot", 100)
	if tr.OpenCount() != 0 || len(tr.Flights()) != 5 {
		t.Fatalf("open=%d, flights=%d after sweep", tr.OpenCount(), len(tr.Flights()))
	}
	for _, f := range tr.Flights() {
		if f.DropReason != "ni-reboot" || f.DropStage != StageHostPost || !f.Done() {
			t.Fatalf("swept flight malformed: %+v", f)
		}
	}
	tr.SweepOpen("again", 200)
	if len(tr.Flights()) != 5 {
		t.Fatal("second sweep found flights")
	}
}

func TestRegistrySectionsAndDashboard(t *testing.T) {
	e := sim.NewEngine(1)
	r := NewRegistry(e)
	var c Counters
	c.Add("x", 3)
	r.AddCounters("nic", &c)
	r.AddCounters("nic", &c) // duplicate prefix must be disambiguated
	g := 7.5
	r.AddGauge("depth", func() float64 { return g })
	r.AddFunc("link", func() []KV { return []KV{{Name: "a.sent", Value: 1}} })

	s := r.Snapshot()
	names := make([]string, len(s.Vals))
	for i, kv := range s.Vals {
		names[i] = kv.Name
	}
	want := []string{"nic.x", "nic#2.x", "depth", "link.a.sent"}
	if len(names) != len(want) {
		t.Fatalf("snapshot keys %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot key %d = %q, want %q (registration order)", i, names[i], want[i])
		}
	}
	d := r.Dashboard()
	if !strings.Contains(d, "nic.x") || !strings.Contains(d, "depth") {
		t.Fatalf("dashboard missing keys:\n%s", d)
	}
}

func TestRegistrySamplingBounded(t *testing.T) {
	e := sim.NewEngine(1)
	r := NewRegistry(e)
	r.AddGauge("g", func() float64 { return 1 })
	r.StartSampling(sim.Millisecond)
	e.RunFor(10 * sim.Millisecond)
	if n := len(r.Snaps()); n != 10 {
		t.Fatalf("snapshots = %d, want 10", n)
	}
	// Dashboard deltas come from the last periodic snapshot; must not panic
	// and must include the gauge.
	if !strings.Contains(r.Dashboard(), "g") {
		t.Fatal("dashboard missing gauge")
	}
}

func TestDecomposeSeparatesKindsAndDrops(t *testing.T) {
	tr := newTestTracer(1, 1, 32)
	mk := func(k Kind, dur sim.Duration, drop bool) {
		f := tr.Sample(0, 1, k, 1000)
		f.Mark(StageHostPost, 1000+sim.Time(dur/2))
		if drop {
			f.Drop(StageWire, "returned:x", 1000+sim.Time(dur))
			return
		}
		f.Mark(StageWire, 1000+sim.Time(dur))
		f.Finish(1000 + sim.Time(dur))
	}
	mk(KindShort, 100, false)
	mk(KindShort, 300, false)
	mk(KindShort, 500, true)
	mk(KindBulk, 1000, false)
	d := Decompose(tr.Flights())
	if d[KindShort].N != 2 || d[KindShort].Dropped != 1 {
		t.Fatalf("short: %+v", d[KindShort])
	}
	if d[KindShort].Total != 400 {
		t.Fatalf("short total %d, want 400 (drops excluded)", d[KindShort].Total)
	}
	if d[KindBulk].N != 1 || d[KindReply].N != 0 {
		t.Fatalf("bulk/reply miscounted: %+v / %+v", d[KindBulk], d[KindReply])
	}
	out := d[KindShort].Render()
	if !strings.Contains(out, "stage sum") || !strings.Contains(out, "delta +0.00%") {
		t.Fatalf("render lacks exact stage-sum check:\n%s", out)
	}
	if empty := (Decomp{Dropped: 3}).Render(); !strings.Contains(empty, "dropped=3") {
		t.Fatalf("empty render: %q", empty)
	}
}

// TestDecomposeSkipsUnfinishedAndCountsPartials pins the finalization
// contract of the decomposition: flights still open (never finished, never
// swept) are skipped outright — no N, no Dropped, no Total — while
// handed-off flights and their cross-shard continuations count as Partial
// so their half-covered stage vectors never skew the per-stage means. Once
// the open flight is swept it reappears as Dropped.
func TestDecomposeSkipsUnfinishedAndCountsPartials(t *testing.T) {
	tr := newTestTracer(1, 1, 32)
	ok := tr.Sample(0, 1, KindShort, 1000)
	ok.Mark(StageHostPost, 1100)
	ok.Mark(StageWire, 1200)
	ok.Finish(1200)
	open := tr.Sample(0, 1, KindShort, 1000)
	open.Mark(StageHostPost, 1500)
	ho := tr.Sample(0, 1, KindShort, 1000)
	ho.Mark(StageHostPost, 1250)
	ho.Handoff(1300)
	cont := tr.Continue(ho.TraceID, ho.Span, 0, 1, KindShort, 1300)
	cont.Mark(StageWire, 1350)
	cont.Finish(1400)

	d := Decompose(append(tr.Flights(), open))
	ds := d[KindShort]
	if ds.N != 1 || ds.Dropped != 0 || ds.Partial != 2 {
		t.Fatalf("want N=1 Dropped=0 Partial=2 (handoff+continuation), got %+v", ds)
	}
	if ds.Total != 200 {
		t.Fatalf("total %d, want 200 (only the fully-finished flight counts)", ds.Total)
	}

	tr.SweepOpen("test-sweep", 2000)
	d = Decompose(tr.Flights())
	ds = d[KindShort]
	if ds.N != 1 || ds.Dropped != 1 || ds.Partial != 2 {
		t.Fatalf("after sweep want N=1 Dropped=1 Partial=2, got %+v", ds)
	}
	if ds.Total != 200 {
		t.Fatalf("total %d after sweep, want 200 (drops stay excluded)", ds.Total)
	}
}
