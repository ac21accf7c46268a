package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"virtnet/internal/sim"
)

// Chrome trace-event JSON (the format Perfetto and chrome://tracing load).
// Timestamps are virtual microseconds; "ph":"X" complete events carry stage
// and hop intervals, "ph":"i" instants carry notes and drop points, "ph":"M"
// metadata names the tracks, and "ph":"C" counter events replay the metric
// registry's periodic snapshots. Tracks: one process per node (thread 0 the
// host, thread 1 the NI), one synthetic process for links (one thread per
// link), one for counters.

const (
	tidHost = 0
	tidNIC  = 1
	linkPid = 1000000 // synthetic process holding one thread per link
	ctrPid  = 2000000 // synthetic process holding counter tracks
)

type completeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type instantEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s"`
	Args map[string]any `json:"args,omitempty"`
}

type metaEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type counterEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Args map[string]any `json:"args"`
}

func usec(t sim.Time) float64 { return float64(t) / 1e3 }

type flowEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	ID   uint64  `json:"id"`
	Ts   float64 `json:"ts"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	BP   string  `json:"bp,omitempty"`
}

// trackFor maps a stage to its (pid, tid): send-side stages render on the
// source node's tracks, receive-side stages on the destination's. The
// request-level stages live on host tracks — client-side waiting on the
// source node, server-side queueing and service on the destination.
func trackFor(f *Flight, st Stage) (int, int) {
	switch st {
	case StageHostPost:
		return f.Src, tidHost
	case StageWRRWait, StageNISend, StageWire:
		return f.Src, tidNIC
	case StageRemoteNI, StageDeposit:
		return f.Dst, tidNIC
	case StageRPCWait, StageBackoff, StageFanIn, StageBreakerOpen, StageDeadlineShed:
		return f.Src, tidHost
	default: // StageHostPoll, StageHandler, StageAdmitWait, StageService
		return f.Dst, tidHost
	}
}

// firstStageTrack is the track a flight's earliest interval renders on
// (host-post's track when the flight recorded nothing).
func firstStageTrack(f *Flight) (int, int) {
	if len(f.Stages) == 0 {
		return trackFor(f, StageHostPost)
	}
	return trackFor(f, f.Stages[0].Stage)
}

// lastStageTrack is the track a flight's final interval renders on.
func lastStageTrack(f *Flight) (int, int) {
	if len(f.Stages) == 0 {
		return trackFor(f, StageHostPost)
	}
	return trackFor(f, f.Stages[len(f.Stages)-1].Stage)
}

// WriteChromeTrace emits the merged flights of one tracer, or of per-shard
// tracer arenas (and, when r is non-nil, the registry's snapshot timeline)
// as Chrome trace-event JSON. Node process tracks are labeled with their
// owning shard, and handed-off flights get traceID-linked flow arrows
// stitching the source segment to its destination-shard continuation.
// shardOfNode maps a node id to its shard (nil renders unsharded track
// names). Output is byte-deterministic: flights iterate in MergeFlights'
// (Begin, Span) order, link tracks are numbered by first appearance, and
// args maps marshal with sorted keys.
func WriteChromeTrace(w io.Writer, ts []*Tracer, shardOfNode func(int) int, r *Registry) error {
	nodes := 0
	for _, t := range ts {
		if t != nil && t.Nodes() > nodes {
			nodes = t.Nodes()
		}
	}
	return writeChromeTrace(w, nodes, MergeFlights(ts), shardOfNode, r)
}

func writeChromeTrace(w io.Writer, nodes int, flights []*Flight, shardOfNode func(int) int, r *Registry) error {
	events := make([]any, 0, 256)

	// Track-naming metadata for every node the flights cover.
	for n := 0; n < nodes; n++ {
		pname := fmt.Sprintf("node%d", n)
		if shardOfNode != nil {
			pname = fmt.Sprintf("node%d [shard %d]", n, shardOfNode(n))
		}
		events = append(events,
			metaEvent{Name: "process_name", Ph: "M", Pid: n, Tid: 0,
				Args: map[string]any{"name": pname}},
			metaEvent{Name: "thread_name", Ph: "M", Pid: n, Tid: tidHost,
				Args: map[string]any{"name": "host"}},
			metaEvent{Name: "thread_name", Ph: "M", Pid: n, Tid: tidNIC,
				Args: map[string]any{"name": "nic"}},
		)
	}
	events = append(events, metaEvent{Name: "process_name", Ph: "M", Pid: linkPid, Tid: 0,
		Args: map[string]any{"name": "links"}})

	// Assign link thread ids in first-appearance order (deterministic).
	linkTid := make(map[string]int)
	for _, f := range flights {
		for _, h := range f.Hops {
			if _, ok := linkTid[h.Link]; !ok {
				tid := len(linkTid)
				linkTid[h.Link] = tid
				events = append(events, metaEvent{Name: "thread_name", Ph: "M", Pid: linkPid, Tid: tid,
					Args: map[string]any{"name": h.Link}})
			}
		}
	}

	for _, f := range flights {
		args := map[string]any{
			"trace": f.TraceID,
			"span":  f.Span,
			"src":   f.Src,
			"dst":   f.Dst,
		}
		for _, s := range f.Stages {
			pid, tid := trackFor(f, s.Stage)
			events = append(events, completeEvent{
				Name: s.Stage.String(), Cat: f.Kind.String(), Ph: "X",
				Ts: usec(s.Start), Dur: usec(s.End) - usec(s.Start),
				Pid: pid, Tid: tid, Args: args,
			})
		}
		for _, h := range f.Hops {
			events = append(events, completeEvent{
				Name: "hop", Cat: f.Kind.String(), Ph: "X",
				Ts: usec(h.Start), Dur: usec(h.End) - usec(h.Start),
				Pid: linkPid, Tid: linkTid[h.Link], Args: args,
			})
		}
		for _, n := range f.Notes {
			events = append(events, instantEvent{
				Name: n.What, Ph: "i", Ts: usec(n.At),
				Pid: f.Src, Tid: tidNIC, S: "t", Args: args,
			})
		}
		if f.DropReason != "" {
			pid, tid := trackFor(f, f.DropStage)
			events = append(events, instantEvent{
				Name: fmt.Sprintf("drop@%s: %s", f.DropStage, f.DropReason),
				Ph:   "i", Ts: usec(f.End), Pid: pid, Tid: tid, S: "t", Args: args,
			})
		}
	}

	// Flow arrows: handed-off flights link to their destination-shard
	// continuations, and request roots link to their op children, all keyed
	// by span id so Perfetto stitches the pieces of one trace visually.
	bySpan := make(map[uint64]*Flight, len(flights))
	var roots map[uint64]*Flight
	for _, f := range flights {
		bySpan[f.Span] = f
		if f.Kind == KindReq {
			if roots == nil {
				roots = make(map[uint64]*Flight)
			}
			roots[f.TraceID] = f
		}
	}
	for _, f := range flights {
		if f.Link != 0 {
			if src, ok := bySpan[f.Link]; ok {
				pid, tid := lastStageTrack(src)
				events = append(events, flowEvent{Name: "handoff", Cat: "handoff",
					Ph: "s", ID: f.Span, Ts: usec(src.End), Pid: pid, Tid: tid})
				p2, t2 := firstStageTrack(f)
				events = append(events, flowEvent{Name: "handoff", Cat: "handoff",
					Ph: "f", BP: "e", ID: f.Span, Ts: usec(f.Begin), Pid: p2, Tid: t2})
			}
		}
		if f.Kind == KindOp && roots != nil {
			if rt, ok := roots[f.TraceID]; ok {
				pid, tid := firstStageTrack(rt)
				events = append(events, flowEvent{Name: "op", Cat: "optree",
					Ph: "s", ID: f.Span, Ts: usec(f.Begin), Pid: pid, Tid: tid})
				p2, t2 := firstStageTrack(f)
				events = append(events, flowEvent{Name: "op", Cat: "optree",
					Ph: "f", BP: "e", ID: f.Span, Ts: usec(f.Begin), Pid: p2, Tid: t2})
			}
		}
	}

	if r != nil && len(r.Snaps()) > 0 {
		events = append(events, metaEvent{Name: "process_name", Ph: "M", Pid: ctrPid, Tid: 0,
			Args: map[string]any{"name": "metrics"}})
		for _, snap := range r.Snaps() {
			for _, kv := range snap.Vals {
				events = append(events, counterEvent{
					Name: kv.Name, Ph: "C", Ts: usec(snap.At),
					Pid: ctrPid, Args: map[string]any{"value": kv.Value},
				})
			}
		}
	}

	doc := struct {
		TraceEvents     []any  `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ns"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// Decomp aggregates the recorded flights of one kind: completed-flight
// stage sums (whose per-stage means decompose the mean end-to-end latency
// exactly, since stage intervals are contiguous) plus the drop count and
// the count of partial segments excluded from the means.
type Decomp struct {
	N       int // completed flights
	Dropped int
	// Partial counts shard-boundary segments (handed-off flights and their
	// continuations): each covers only part of a message's life, so
	// including either side would skew the per-stage means.
	Partial int
	Stage   [NumStages]sim.Duration // summed over completed flights
	Total   sim.Duration            // summed end-to-end over completed flights
}

// Decompose aggregates flights by kind. Only finalized, fully completed
// flights contribute to the means: unfinished flights (still open — never
// swept or finished) are skipped outright, dropped flights count toward
// Dropped only, and shard-boundary segments count toward Partial only,
// since partial stage vectors would skew the decomposition.
func Decompose(flights []*Flight) [NumKinds]Decomp {
	var out [NumKinds]Decomp
	for _, f := range flights {
		if f.Kind >= NumKinds || !f.Done() {
			continue
		}
		d := &out[f.Kind]
		if f.DropReason != "" {
			d.Dropped++
			continue
		}
		if f.HandedOff || f.Link != 0 {
			d.Partial++
			continue
		}
		d.N++
		st := f.StageTotals()
		for i := range st {
			d.Stage[i] += st[i]
		}
		d.Total += f.Total()
	}
	return out
}

// Render formats the decomposition as a per-stage mean table with the stage
// sum checked against the mean end-to-end latency.
func (d Decomp) Render() string {
	var b strings.Builder
	if d.N == 0 {
		fmt.Fprintf(&b, "  (no completed flights; dropped=%d)\n", d.Dropped)
		return b.String()
	}
	totalUs := float64(d.Total) / 1e3 / float64(d.N)
	var sumUs float64
	for st := Stage(0); st < NumStages; st++ {
		meanUs := float64(d.Stage[st]) / 1e3 / float64(d.N)
		sumUs += meanUs
		// Request-level stages print only when present, so per-message
		// decompositions keep their original eight-row table.
		if st >= StageRPCWait && d.Stage[st] == 0 {
			continue
		}
		pct := 0.0
		if totalUs > 0 {
			pct = 100 * meanUs / totalUs
		}
		fmt.Fprintf(&b, "  %-12s %10.3f us  %5.1f%%\n", st.String(), meanUs, pct)
	}
	delta := 0.0
	if totalUs > 0 {
		delta = 100 * (sumUs - totalUs) / totalUs
	}
	fmt.Fprintf(&b, "  %-12s %10.3f us\n", "stage sum", sumUs)
	fmt.Fprintf(&b, "  %-12s %10.3f us  (delta %+.2f%%)\n", "end-to-end", totalUs, delta)
	return b.String()
}
