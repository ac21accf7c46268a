package npb

import (
	"testing"

	"virtnet/internal/sim"
)

func TestKernelsComplete(t *testing.T) {
	if len(Kernels()) != 8 {
		t.Fatalf("expected 8 NPB kernels, got %d", len(Kernels()))
	}
	names := map[string]bool{}
	for _, k := range Kernels() {
		if names[k.Name] {
			t.Fatalf("duplicate kernel %s", k.Name)
		}
		names[k.Name] = true
	}
	for _, want := range []string{"EP", "IS", "FT", "MG", "CG", "LU", "BT", "SP"} {
		if !names[want] {
			t.Fatalf("missing kernel %s", want)
		}
	}
}

// kernel is the model Kernels() names name.
func kernel(name string) Kernel {
	for _, k := range Kernels() {
		if k.Name == name {
			return k
		}
	}
	panic("npb: no kernel " + name)
}

func TestCacheFactorMonotone(t *testing.T) {
	prev := 0.0
	for _, p := range []int{1, 2, 4, 8, 16, 32} {
		f := cacheFactor(0.4, 1.0, p)
		if f <= prev {
			t.Fatalf("cache factor not increasing at P=%d: %f", p, f)
		}
		if f < 1.0 || f > 1.4 {
			t.Fatalf("cache factor out of range at P=%d: %f", p, f)
		}
		prev = f
	}
	if f := cacheFactor(0.4, 1.0, 1); f != 1.0 {
		t.Fatalf("cache factor at P=1 should be 1.0, got %f", f)
	}
}

func TestAnalyticMachinesScale(t *testing.T) {
	ep := kernel("EP")
	ft := kernel("FT")
	for _, m := range []Machine{SP2(), Origin2000()} {
		sEP, ok := Speedup(m, ep, []int{2, 8, 32})
		if !ok {
			t.Fatalf("%s EP failed", m.Name())
		}
		// EP is embarrassingly parallel: near-linear everywhere.
		if sEP[2] < 25 {
			t.Errorf("%s EP speedup at 32 = %.1f, want near-linear", m.Name(), sEP[2])
		}
		// IS (all-to-all, little cache benefit) must scale worse than EP;
		// FT's cache term may compensate (the paper's observation) but the
		// speedup stays bounded.
		is := kernel("IS")
		sIS, _ := Speedup(m, is, []int{2, 8, 32})
		if sIS[2] >= 0.85*sEP[2] {
			t.Errorf("%s IS (%.1f) should scale worse than EP (%.1f)", m.Name(), sIS[2], sEP[2])
		}
		sFT, _ := Speedup(m, ft, []int{2, 8, 32})
		if sFT[2] > 1.5*32 {
			t.Errorf("%s FT speedup %.1f implausibly superlinear", m.Name(), sFT[2])
		}
	}
}

func TestSP2ScalesWorseThanOrigin(t *testing.T) {
	// The SP-2's high message overheads hurt latency-bound kernels.
	lu := kernel("LU")
	sSP2, _ := Speedup(SP2(), lu, []int{32})
	sOri, _ := Speedup(Origin2000(), lu, []int{32})
	if sSP2[0] >= sOri[0] {
		t.Fatalf("SP-2 LU speedup %.1f should trail Origin %.1f", sSP2[0], sOri[0])
	}
}

func TestNOWSmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("NOW simulation is slow")
	}
	now := NewNOW(1)
	cg := kernel("CG")
	// Shrink the kernel so the test is fast but still exercises the
	// simulated communication path.
	cg.Iters = 3
	cg.Flops = 20e6
	cg.Bytes = 100e3
	s, ok := Speedup(now, cg, []int{2, 4})
	if !ok {
		t.Fatal("NOW run did not complete")
	}
	// Slightly superlinear is expected: the cache term models smaller
	// per-node working sets (the paper's observation).
	if s[0] < 1.2 || s[0] > 2.5 {
		t.Fatalf("CG speedup at 2 = %.2f, want ~2 (cache-boosted)", s[0])
	}
	if s[1] <= s[0] {
		t.Fatalf("speedup not increasing: %v", s)
	}
}

func TestNOWBisectionLimitsAlltoall(t *testing.T) {
	if testing.Short() {
		t.Skip("NOW simulation is slow")
	}
	now := NewNOW(1)
	// A comm-heavy all-to-all kernel: speedup at 16 must fall well short of
	// linear (FT/IS behaviour), while a compute-only kernel stays linear.
	a2a := Kernel{Name: "A2A", Iters: 4, Flops: 40e6, Pattern: PatAlltoall, Bytes: 8e6}
	comp := Kernel{Name: "COMP", Iters: 4, Flops: 40e6, Pattern: PatNone}
	sa, ok1 := Speedup(now, a2a, []int{16})
	sc, ok2 := Speedup(now, comp, []int{16})
	if !ok1 || !ok2 {
		t.Fatal("runs did not complete")
	}
	if sc[0] < 14 {
		t.Fatalf("compute-only speedup at 16 = %.1f, want ~16", sc[0])
	}
	if sa[0] > 0.8*sc[0] {
		t.Fatalf("all-to-all kernel speedup %.1f not limited vs compute-only %.1f", sa[0], sc[0])
	}
}

func TestAnalyticTimeMonotoneInP(t *testing.T) {
	// Execution time must not increase with P for compute-dominated kernels.
	bt := kernel("BT")
	m := Origin2000()
	var prev sim.Duration
	for i, p := range []int{1, 2, 4, 8, 16, 32} {
		tm, _ := m.Time(bt, p)
		if i > 0 && tm >= prev {
			t.Fatalf("BT time not decreasing at P=%d: %v >= %v", p, tm, prev)
		}
		prev = tm
	}
}
