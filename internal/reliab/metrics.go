package reliab

import "virtnet/internal/obs"

// Metrics aggregates the reliability layer's counters. One Metrics is
// typically shared by every client and server in an experiment so the
// dashboard shows cluster-wide totals. A nil *Metrics is valid and records
// nothing, which lets the layers thread it through unconditionally.
//
// Counter names (all under the "reliab" registry prefix): shed,
// deadline_exceeded, overload_nacks, breaker_open, breaker_halfopen,
// breaker_close, breaker_fastfail, idem_hits, idem_dup, stale_reclaimed.
type Metrics struct {
	C obs.Counters
}

// NewMetrics returns an empty metrics set.
func NewMetrics() *Metrics { return &Metrics{} }

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

// Register publishes the counters in the unified metrics registry under the
// "reliab" prefix, where they appear in the dashboard's reliability section.
func (m *Metrics) Register(r *obs.Registry) {
	if m == nil || r == nil {
		return
	}
	r.AddCounters("reliab", &m.C)
}
