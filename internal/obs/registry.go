package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"virtnet/internal/sim"
)

// KV is one named metric value in a snapshot.
type KV struct {
	Name  string
	Value float64
}

// Snap is one point-in-time snapshot of every registered metric.
type Snap struct {
	At   sim.Time
	Vals []KV
}

// MergeSnaps joins per-shard snapshots into one: values concatenate in
// shard order (each registry's own order is already deterministic) and the
// merged timestamp is the latest shard clock — at a barrier all shards
// agree, between barriers the laggards just have not caught up yet.
func MergeSnaps(snaps []Snap) Snap {
	var out Snap
	for _, s := range snaps {
		if s.At > out.At {
			out.At = s.At
		}
		out.Vals = append(out.Vals, s.Vals...)
	}
	return out
}

// maxSnaps bounds the periodic-snapshot timeline; sampling stops quietly
// once full so long soaks cannot grow without bound.
const maxSnaps = 4096

// Registry is the unified metrics registry. Layers register named sections
// (counter sets, gauges, histograms) once at wiring time; Snapshot walks
// them in registration order, so the emitted key order is deterministic.
// Registration and snapshotting are mutex-guarded: the simulation is
// single-threaded, but late registrations (tenant churn) can overlap
// snapshot reads from observer goroutines.
type Registry struct {
	e        *sim.Engine
	mu       sync.Mutex
	sections []section
	prefixes map[string]bool
	snaps    []Snap
	sampling bool
}

// section is one registration: its unique name and what it emits.
type section struct {
	name string
	emit func(name string, out []KV) []KV
}

// NewRegistry builds an empty registry bound to the engine's virtual clock.
func NewRegistry(e *sim.Engine) *Registry {
	return &Registry{e: e, prefixes: make(map[string]bool)}
}

// uniquify disambiguates a duplicate registration name rather than letting
// two sections shadow each other in the dashboard.
func (r *Registry) uniquify(name string) string {
	base := name
	for i := 2; r.prefixes[name]; i++ {
		name = fmt.Sprintf("%s#%d", base, i)
	}
	r.prefixes[name] = true
	return name
}

// add registers one section under name, made unique first; emit appends
// the section's values, given that final name. A nil registry ignores it.
func (r *Registry) add(name string, emit func(name string, out []KV) []KV) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sections = append(r.sections, section{r.uniquify(name), emit})
}

// AddCounters registers a counter set under prefix: a *Counters or a
// layer's own (nic.Counters). Each counter appears as "prefix.name" in the
// order the set's Snapshot lists it, which is deterministic per seed.
func (r *Registry) AddCounters(prefix string, c interface{ Snapshot() []CounterKV }) {
	r.add(prefix, func(prefix string, out []KV) []KV {
		for _, kv := range c.Snapshot() {
			out = append(out, KV{Name: prefix + "." + kv.Name, Value: float64(kv.Value)})
		}
		return out
	})
}

// AddGauge registers a single instantaneous value read by fn at snapshot
// time (queue depths, free frames, blocked senders).
func (r *Registry) AddGauge(name string, fn func() float64) {
	if fn == nil {
		return
	}
	r.add(name, func(name string, out []KV) []KV {
		return append(out, KV{Name: name, Value: fn()})
	})
}

// AddFunc registers a section that emits an arbitrary (but deterministic)
// list of values, e.g. per-link counters from the network.
func (r *Registry) AddFunc(prefix string, fn func() []KV) {
	if fn == nil {
		return
	}
	r.add(prefix, func(prefix string, out []KV) []KV {
		for _, kv := range fn() {
			out = append(out, KV{Name: prefix + "." + kv.Name, Value: kv.Value})
		}
		return out
	})
}

// Snapshot reads every registered section now. Section callbacks run
// outside the registry lock so one that registers further metrics (or
// blocks) cannot deadlock the registry.
func (r *Registry) Snapshot() Snap {
	if r == nil {
		return Snap{}
	}
	r.mu.Lock()
	sections := append([]section(nil), r.sections...)
	r.mu.Unlock()
	s := Snap{At: r.e.Now()}
	for _, sec := range sections {
		s.Vals = sec.emit(sec.name, s.Vals)
	}
	return s
}

// StartSampling arranges a periodic Snapshot every interval of virtual
// time, feeding the timeline returned by Snaps (and the counter tracks of
// the Chrome trace export). Idempotent.
func (r *Registry) StartSampling(every sim.Duration) {
	if r == nil || every <= 0 {
		return
	}
	r.mu.Lock()
	if r.sampling {
		r.mu.Unlock()
		return
	}
	r.sampling = true
	r.mu.Unlock()
	var tick func()
	tick = func() {
		snap := r.Snapshot()
		r.mu.Lock()
		full := len(r.snaps) >= maxSnaps
		if !full {
			r.snaps = append(r.snaps, snap)
		}
		r.mu.Unlock()
		if full {
			return
		}
		r.e.AfterFunc(every, tick)
	}
	r.e.AfterFunc(every, tick)
}

// Snaps returns the periodic snapshot timeline.
func (r *Registry) Snaps() []Snap {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Snap(nil), r.snaps...)
}

// Dashboard renders a fresh snapshot as aligned text, sorted by name and
// omitting zero values, with the delta since the last periodic snapshot
// when one exists.
func (r *Registry) Dashboard() string {
	if r == nil {
		return ""
	}
	cur := r.Snapshot()
	var prev map[string]float64
	r.mu.Lock()
	if len(r.snaps) > 0 {
		last := r.snaps[len(r.snaps)-1]
		prev = make(map[string]float64, len(last.Vals))
		for _, kv := range last.Vals {
			prev[kv.Name] = kv.Value
		}
	}
	r.mu.Unlock()
	vals := make([]KV, len(cur.Vals))
	copy(vals, cur.Vals)
	sort.Slice(vals, func(i, j int) bool { return vals[i].Name < vals[j].Name })
	var b strings.Builder
	fmt.Fprintf(&b, "== metrics @ %v ==\n", cur.At.Sub(0))
	for _, kv := range vals {
		if kv.Value == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-40s %14s", kv.Name, fmtVal(kv.Value))
		if prev != nil {
			if d := kv.Value - prev[kv.Name]; d != 0 {
				fmt.Fprintf(&b, "  (%+g)", d)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DashboardSection renders just the metrics under one name prefix
// ("reliab", "nic", ...) as aligned text, sorted by name with zero values
// omitted — the Dashboard format restricted to prefix+".". Layers use it
// to print their own section (e.g. the reliability section the chaos soak
// emits) without dumping the whole cluster's metrics.
func (r *Registry) DashboardSection(prefix string) string {
	if r == nil {
		return ""
	}
	cur := r.Snapshot()
	var vals []KV
	for _, kv := range cur.Vals {
		if strings.HasPrefix(kv.Name, prefix+".") {
			vals = append(vals, kv)
		}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].Name < vals[j].Name })
	var b strings.Builder
	fmt.Fprintf(&b, "== %s @ %v ==\n", prefix, cur.At.Sub(0))
	for _, kv := range vals {
		if kv.Value == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-40s %14s\n", kv.Name, fmtVal(kv.Value))
	}
	return b.String()
}

func fmtVal(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3f", v)
}
