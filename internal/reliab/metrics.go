package reliab

import (
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// Metrics aggregates the reliability layer's counters and its retry-
// backoff histogram. One Metrics is typically shared by every client and
// server in an experiment so the dashboard shows cluster-wide totals. A
// nil *Metrics is valid and records nothing, which lets the layers thread
// it through unconditionally.
//
// Counter names (all under the "reliab" registry prefix): shed,
// deadline_exceeded, overload_nacks, retries, retry_denied, breaker_open,
// breaker_halfopen, breaker_close, breaker_fastfail, idem_hits, idem_dup,
// stale_reclaimed.
type Metrics struct {
	C       obs.Counters
	Backoff *obs.Hist
}

// NewMetrics returns an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{Backoff: obs.NewHist()}
}

// Inc increments counter name by one; nil-safe.
func (m *Metrics) Inc(name string) {
	if m != nil {
		m.C.Inc(name)
	}
}

// Add increments counter name by n; nil-safe.
func (m *Metrics) Add(name string, n int64) {
	if m != nil {
		m.C.Add(name, n)
	}
}

// Get returns counter name's value; nil-safe.
func (m *Metrics) Get(name string) int64 {
	if m == nil {
		return 0
	}
	return m.C.Get(name)
}

// ObserveBackoff records one retry-backoff delay; nil-safe.
func (m *Metrics) ObserveBackoff(d sim.Duration) {
	if m != nil {
		m.Backoff.Observe(d)
	}
}

// Register publishes the counters and the backoff histogram in the
// unified metrics registry under the "reliab" prefix, where they appear in
// the dashboard's reliability section.
func (m *Metrics) Register(r *obs.Registry) {
	if m == nil || r == nil {
		return
	}
	r.AddCounters("reliab", &m.C)
	r.AddHist("reliab.backoff", m.Backoff)
}
