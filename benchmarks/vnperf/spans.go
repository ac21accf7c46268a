package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// The harness records two kinds of span, both from its own files and around
// its own calls into the layers.
//
// Host-clock spans cover the run, each repetition and each phase of a
// repetition (setup, run, drain, harvest, shutdown). They stop at phases on
// purpose: every Poll or Request charges virtual CPU with Proc.Sleep and
// yields to the engine, so a host-clock span around one would time the whole
// simulator, not the layer. Host time per layer comes from the CPU profile
// and the probes instead.
//
// Virtual-clock spans cover one operation in opSampleEvery: the operation
// itself, the harness's own call that issued it (Endpoint.Request,
// Client.Call, Workload.Issue) and, beneath, the stages of the obs flights
// that carried it, joined by trace id.

const opSampleEvery = 64

// harnessTraceBit marks trace ids the harness hands out, so they cannot
// collide with the flight recorder's own (shard<<48 | sequence).
const harnessTraceBit = 1 << 62

// opSpan is one sampled operation in virtual time. Each client proc appends
// to its own slice, so recording needs no lock on a sharded cluster.
type opSpan struct {
	client  int
	op      int64
	call    string   // the harness call that issued it
	start   sim.Time // call entered
	callEnd sim.Time // call returned
	end     sim.Time // operation complete (reply handled / result in hand)
	trace   uint64
	waitEnd sim.Time // serve-kv: the TryWait that found it done
}

// complete reports whether the operation finished before the run ended.
func (o opSpan) complete() bool { return o.end != 0 }

// opTraceID is the trace id of client c's op number op.
func opTraceID(client int, op int64) uint64 {
	return harnessTraceBit | uint64(client)<<32 | uint64(op)
}

// span is one finished span, as written to the trace file.
type span struct {
	Name   string
	Clock  string // "host" or "virtual"
	Start  int64  // ns: since the run began (host) or since virtual time 0
	End    int64
	ID     int
	Parent int // 0 = root
	Op     int64
	Track  int // host: 0; virtual: the client index
}

// spanRec keeps every span in memory until the run ends. Only the main
// goroutine appends to it: host phases as they finish, virtual spans when a
// repetition is harvested.
type spanRec struct {
	epoch time.Time
	spans []span
	// The currently open host-clock run and repetition spans' ids.
	runID, repID int
}

func newSpanRec() *spanRec { return &spanRec{epoch: time.Now()} }

func (s *spanRec) add(sp span) int {
	sp.ID = len(s.spans) + 1
	s.spans = append(s.spans, sp)
	return sp.ID
}

func (s *spanRec) hostSpan(name string, parent int, start, end time.Time) int {
	return s.add(span{Name: name, Clock: "host", Parent: parent,
		Start: start.Sub(s.epoch).Nanoseconds(), End: end.Sub(s.epoch).Nanoseconds()})
}

// addOps files one repetition's sampled operations, with the stages of the
// flights that share each operation's trace id as children of the call that
// posted them.
func (s *spanRec) addOps(ops []opSpan, flights []*obs.Flight) {
	byTrace := make(map[uint64][]*obs.Flight, len(ops))
	for _, o := range ops {
		byTrace[o.trace] = nil
	}
	for _, f := range flights {
		if _, wanted := byTrace[f.TraceID]; wanted {
			byTrace[f.TraceID] = append(byTrace[f.TraceID], f)
		}
	}
	for _, o := range ops {
		if !o.complete() {
			continue
		}
		opID := s.add(span{Name: "op", Clock: "virtual", Parent: s.repID, Op: o.op, Track: o.client,
			Start: int64(o.start), End: int64(o.end)})
		callID := s.add(span{Name: o.call, Clock: "virtual", Parent: opID, Op: o.op, Track: o.client,
			Start: int64(o.start), End: int64(o.callEnd)})
		if o.waitEnd != 0 {
			s.add(span{Name: "Req.TryWait", Clock: "virtual", Parent: opID, Op: o.op, Track: o.client,
				Start: int64(o.callEnd), End: int64(o.waitEnd)})
		}
		for _, f := range byTrace[o.trace] {
			for _, st := range f.Stages {
				s.add(span{Name: f.Kind.String() + "/" + st.Stage.String(), Clock: "virtual",
					Parent: callID, Op: o.op, Track: o.client,
					Start: int64(st.Start), End: int64(st.End)})
			}
		}
	}
}

// Chrome trace-event JSON. Process 1 holds the host-clock spans, process 2
// the virtual-clock ones (one thread per client), so the two time bases
// never share a track.
const (
	pidHost    = 1
	pidVirtual = 2
)

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes every recorded span as a complete ("X") event;
// timestamps are microseconds.
func (s *spanRec) writeChromeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	events := make([]traceEvent, 0, len(s.spans)+2)
	events = append(events,
		traceEvent{Name: "process_name", Ph: "M", Pid: pidHost, Args: map[string]any{"name": "harness (host clock)"}},
		traceEvent{Name: "process_name", Ph: "M", Pid: pidVirtual, Args: map[string]any{"name": "operations (virtual clock)"}})
	for _, sp := range s.spans {
		pid := pidHost
		if sp.Clock == "virtual" {
			pid = pidVirtual
		}
		events = append(events, traceEvent{
			Name: sp.Name, Cat: sp.Clock, Ph: "X",
			Ts: float64(sp.Start) / 1e3, Dur: float64(sp.End-sp.Start) / 1e3,
			Pid: pid, Tid: sp.Track,
			Args: map[string]any{"id": sp.ID, "parent": sp.Parent, "op": sp.Op},
		})
	}
	err = json.NewEncoder(w).Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ns"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
