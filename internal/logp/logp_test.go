package logp

import (
	"testing"

	"virtnet/internal/core"
	"virtnet/internal/gam"
	"virtnet/internal/hostos"
	"virtnet/internal/netsim"
	"virtnet/internal/sim"
)

func amPair(t testing.TB) (*hostos.Cluster, Station, Station) {
	t.Helper()
	c := hostos.NewCluster(1, 2, hostos.DefaultClusterConfig())
	t.Cleanup(c.Shutdown)
	b0 := core.Attach(c.Nodes[0])
	b1 := core.Attach(c.Nodes[1])
	e0, _ := b0.NewEndpoint(1, 4)
	e1, _ := b1.NewEndpoint(2, 4)
	e0.Map(0, e1.Name(), 2)
	e1.Map(0, e0.Name(), 1)
	return c, AMStation{EP: e0, Idx: 0}, AMStation{EP: e1, Idx: 0}
}

func gamPair(t testing.TB) (*sim.Engine, Station, Station) {
	t.Helper()
	e := sim.NewEngine(1)
	net := netsim.New(e, netsim.DefaultConfig(), 2)
	w := gam.New(e, net)
	t.Cleanup(func() { w.Stop(); e.Shutdown() })
	return e, GAMStation{N: w.Node(0), Dst: 1}, GAMStation{N: w.Node(1), Dst: 0}
}

func TestMeasureAM(t *testing.T) {
	c, cl, sv := amPair(t)
	r := Measure(c.ShardEngine(0), cl, sv, 50)
	t.Logf("AM: Os=%.2fus Or=%.2fus L=%.2fus g=%.2fus RTT=%.2fus",
		r.Os.Micros(), r.Or.Micros(), r.L.Micros(), r.G.Micros(), r.RTT.Micros())
	if r.Os <= 0 || r.Or <= 0 || r.L <= 0 || r.G <= 0 {
		t.Fatalf("non-positive LogP parameter: %+v", r)
	}
	// Fig. 3 shape constraints for virtual networks.
	if r.Os < 3*sim.Microsecond || r.Os > 6*sim.Microsecond {
		t.Errorf("AM Os = %.2fus, expected ~3.8us", r.Os.Micros())
	}
	if r.G < 9*sim.Microsecond || r.G > 17*sim.Microsecond {
		t.Errorf("AM g = %.2fus, expected ~12.8us", r.G.Micros())
	}
}

func TestMeasureGAM(t *testing.T) {
	e, cl, sv := gamPair(t)
	r := Measure(e, cl, sv, 50)
	t.Logf("GAM: Os=%.2fus Or=%.2fus L=%.2fus g=%.2fus RTT=%.2fus",
		r.Os.Micros(), r.Or.Micros(), r.L.Micros(), r.G.Micros(), r.RTT.Micros())
	if r.G < 4*sim.Microsecond || r.G > 8*sim.Microsecond {
		t.Errorf("GAM g = %.2fus, expected ~5.8us", r.G.Micros())
	}
}

func TestFig3Ratios(t *testing.T) {
	c, amc, ams := amPair(t)
	am := Measure(c.ShardEngine(0), amc, ams, 50)
	e, gmc, gms := gamPair(t)
	g := Measure(e, gmc, gms, 50)

	gapRatio := float64(am.G) / float64(g.G)
	rttRatio := float64(am.RTT) / float64(g.RTT)
	t.Logf("gap ratio = %.2f (paper 2.21), RTT ratio = %.2f (paper 1.23)", gapRatio, rttRatio)
	if gapRatio < 1.6 || gapRatio > 3.0 {
		t.Errorf("gap ratio %.2f out of range [1.6, 3.0] (paper: 2.21)", gapRatio)
	}
	if rttRatio < 1.05 || rttRatio > 1.6 {
		t.Errorf("RTT ratio %.2f out of range [1.05, 1.6] (paper: 1.23)", rttRatio)
	}
	// Total per-packet overhead remains roughly the same (paper: Os bigger,
	// Or smaller, sum unchanged).
	amOv := am.Os + am.Or
	gOv := g.Os + g.Or
	ratio := float64(amOv) / float64(gOv)
	if ratio < 0.75 || ratio > 1.35 {
		t.Errorf("overhead sum ratio %.2f, expected ~1.0", ratio)
	}
}

func TestBandwidthAM(t *testing.T) {
	c, cl, sv := amPair(t)
	mbps := Bandwidth(c.ShardEngine(0), cl, sv, 8192, 60)
	t.Logf("AM 8KB bandwidth = %.1f MB/s (paper: 43.9)", mbps)
	if mbps < 38 || mbps > 47 {
		t.Errorf("AM bandwidth %.1f MB/s out of range (paper: 43.9, HW limit 46.8)", mbps)
	}
}

func TestBandwidthGAM(t *testing.T) {
	e, cl, sv := gamPair(t)
	mbps := Bandwidth(e, cl, sv, 8192, 60)
	t.Logf("GAM 8KB bandwidth = %.1f MB/s (paper: 38)", mbps)
	if mbps < 32 || mbps > 43 {
		t.Errorf("GAM bandwidth %.1f MB/s out of range (paper: 38)", mbps)
	}
}

func TestBandwidthMonotonicInSize(t *testing.T) {
	var prev float64
	for _, size := range []int{128, 512, 2048, 8192} {
		c, cl, sv := amPair(t)
		mbps := Bandwidth(c.ShardEngine(0), cl, sv, size, 40)
		t.Logf("AM %5dB: %.1f MB/s", size, mbps)
		if mbps <= prev {
			t.Errorf("bandwidth not increasing with size: %d B -> %.1f MB/s (prev %.1f)", size, mbps, prev)
		}
		prev = mbps
	}
}

func TestRTTBulkLinearInSize(t *testing.T) {
	c, cl, sv := amPair(t)
	r1 := RTTBulk(c.ShardEngine(0), cl, sv, 1024)
	c2, cl2, sv2 := amPair(t)
	r8 := RTTBulk(c2.ShardEngine(0), cl2, sv2, 8192)
	t.Logf("bulk RTT: 1KB=%.1fus 8KB=%.1fus", r1.Micros(), r8.Micros())
	if r8 <= r1 {
		t.Fatal("bulk RTT not increasing with size")
	}
	// Slope sanity: the paper's fit is 0.1112 us/B; ours should be within 2x.
	slope := float64(r8-r1) / float64(8192-1024) / 1000.0 // us per byte
	if slope < 0.05 || slope > 0.25 {
		t.Errorf("RTT slope %.4f us/B, paper 0.1112", slope)
	}
}
