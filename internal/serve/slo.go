package serve

import (
	"fmt"

	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// SLO accumulates one client's (or one merged run's) service-level
// accounting over the measurement window. Counters are exact; latencies of
// good responses go into a full-retention histogram so p999 is exact.
//
// Each open-loop client owns its SLO (procs on different shards run
// concurrently, so shared accumulation would race); Merge folds them in
// client order after the run.
type SLO struct {
	Offered int64 // arrivals the schedule produced in the window
	Issued  int64 // actually put on the wire
	Capped  int64 // dropped at the client: inflight cap hit (open-loop overflow)
	Good    int64 // completed within deadline
	Missed  int64 // completed but past deadline, or shed for deadline by a tier
	Failed  int64 // transport failure / unreachable / abandoned at window end
	Shed    int64 // rejected by server admission (overload NACK)

	Lat *obs.Hist // end-to-end latency of Good responses
}

// NewSLO returns an empty SLO accumulator.
func NewSLO() *SLO { return &SLO{Lat: obs.NewHist()} }

// RecordGood counts a response that completed within its deadline.
func (s *SLO) RecordGood(lat sim.Duration) {
	s.Good++
	s.Lat.Observe(lat)
}

// Merge folds o into s. Call in a deterministic order (client index).
func (s *SLO) Merge(o *SLO) {
	s.Offered += o.Offered
	s.Issued += o.Issued
	s.Capped += o.Capped
	s.Good += o.Good
	s.Missed += o.Missed
	s.Failed += o.Failed
	s.Shed += o.Shed
	for _, d := range o.Lat.Samples() {
		s.Lat.Observe(d)
	}
}

// GoodputFrac is the fraction of offered load answered within deadline.
func (s *SLO) GoodputFrac() float64 {
	if s.Offered == 0 {
		return 0
	}
	return float64(s.Good) / float64(s.Offered)
}

// Line renders the SLO on one golden-friendly line for a measurement
// window of the given length.
func (s *SLO) Line(window sim.Duration) string {
	goodRate := float64(s.Good) / window.Seconds()
	return fmt.Sprintf("offered=%d good=%d (%.1f%%, %.0f/s) miss=%d fail=%d shed=%d capped=%d p50=%v p99=%v p999=%v",
		s.Offered, s.Good, 100*s.GoodputFrac(), goodRate,
		s.Missed, s.Failed, s.Shed, s.Capped,
		s.Lat.Quantile(0.5), s.Lat.Quantile(0.99), s.Lat.Quantile(0.999))
}

// kvs renders the SLO as registry key/values.
func (s *SLO) kvs() []obs.KV {
	return []obs.KV{
		{Name: "offered", Value: float64(s.Offered)},
		{Name: "good", Value: float64(s.Good)},
		{Name: "missed", Value: float64(s.Missed)},
		{Name: "failed", Value: float64(s.Failed)},
		{Name: "shed", Value: float64(s.Shed)},
		{Name: "capped", Value: float64(s.Capped)},
		{Name: "p50_us", Value: s.Lat.Quantile(0.5).Seconds() * 1e6},
		{Name: "p99_us", Value: s.Lat.Quantile(0.99).Seconds() * 1e6},
		{Name: "p999_us", Value: s.Lat.Quantile(0.999).Seconds() * 1e6},
	}
}

// RegisterMerged exposes a live merged view over per-client SLO
// accumulators under "serve" in an obs registry:
// offered/good/missed/shed counters plus live p50/p99/p999 gauges — the
// dashboard panel vnstress -dash renders. get runs at snapshot time;
// registry snapshots must only be taken while the engines are parked
// between RunFor rounds (the sharded-cluster dashboard contract), which is
// exactly when reading the per-shard accumulators together is safe.
func RegisterMerged(r *obs.Registry, get func() *SLO) {
	if r == nil {
		return
	}
	r.AddFunc("serve", func() []obs.KV { return get().kvs() })
}
