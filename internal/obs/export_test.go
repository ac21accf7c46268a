package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"virtnet/internal/sim"
)

// buildExportFixture records a small deterministic set of flights plus a
// registry timeline, the way the instrumented cluster would.
func buildExportFixture() (*Tracer, *Registry) {
	e := sim.NewEngine(3)
	tr := NewTracer(e, 2, 1, 16)
	r := NewRegistry(e)
	v := 0.0
	r.AddGauge("net.sent", func() float64 { return v })
	r.StartSampling(10 * sim.Microsecond)

	req := tr.Sample(0, 1, KindShort, 100)
	req.Mark(StageHostPost, 4000)
	req.Mark(StageWRRWait, 9000)
	req.Mark(StageNISend, 11000)
	req.AddHop("h0-l0", 11000, 12000)
	req.AddHop("l0-s0", 12000, 13000)
	req.Mark(StageWire, 14000)
	req.Mark(StageRemoteNI, 16000)
	req.Mark(StageDeposit, 18000)
	req.Mark(StageHostPoll, 20000)
	req.Mark(StageHandler, 23000)
	req.Finish(23000)

	rep := tr.Child(req.TraceID, 1, 0, KindReply, 23000)
	rep.Mark(StageHostPost, 25000)
	rep.Note("retransmit", 30000)
	rep.Drop(StageWire, "returned:unreachable", 50000)

	v = 42
	e.RunFor(30 * sim.Microsecond)
	return tr, r
}

// TestChromeTraceSchema round-trips the export through encoding/json and
// validates the trace-event contract Perfetto relies on: a traceEvents
// array; every event carries name/ph/pid; X events carry ts and a
// non-negative dur; M events name the node/link tracks; C events carry a
// numeric value; the drop instant and note are present.
func TestChromeTraceSchema(t *testing.T) {
	tr, r := buildExportFixture()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []*Tracer{tr}, nil, r); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayUnit != "ns" || len(doc.TraceEvents) == 0 {
		t.Fatalf("bad envelope: unit=%q events=%d", doc.DisplayUnit, len(doc.TraceEvents))
	}
	var xEvents, counters, metas, instants int
	names := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		name, _ := ev["name"].(string)
		ph, _ := ev["ph"].(string)
		if name == "" || ph == "" {
			t.Fatalf("event %d missing name/ph: %v", i, ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event %d missing pid: %v", i, ev)
		}
		names[name] = true
		switch ph {
		case "X":
			xEvents++
			ts, ok1 := ev["ts"].(float64)
			dur, ok2 := ev["dur"].(float64)
			if !ok1 || !ok2 || ts < 0 || dur < 0 {
				t.Fatalf("X event %d bad ts/dur: %v", i, ev)
			}
			args, ok := ev["args"].(map[string]any)
			if !ok || args["trace"] == nil || args["span"] == nil {
				t.Fatalf("X event %d lacks trace/span args: %v", i, ev)
			}
		case "M":
			metas++
			if ev["args"].(map[string]any)["name"] == nil {
				t.Fatalf("metadata %d lacks a track name: %v", i, ev)
			}
		case "C":
			counters++
			if _, ok := ev["args"].(map[string]any)["value"].(float64); !ok {
				t.Fatalf("counter %d lacks numeric value: %v", i, ev)
			}
		case "i":
			instants++
		default:
			t.Fatalf("event %d has unknown ph %q", i, ph)
		}
	}
	// One stage X per mark (8 + 2 for the dropped reply) plus 2 hops.
	if xEvents != 12 {
		t.Fatalf("X events = %d, want 12", xEvents)
	}
	if counters == 0 || metas == 0 {
		t.Fatalf("counters=%d metas=%d, want both > 0", counters, metas)
	}
	if instants != 2 {
		t.Fatalf("instants = %d, want note + drop", instants)
	}
	for _, want := range []string{"node0", "host-post", "hop", "retransmit",
		"drop@wire: returned:unreachable", "net.sent"} {
		found := false
		for n := range names {
			if n == want || (want == "node0" && n == "process_name") {
				found = true
			}
		}
		if !found {
			t.Fatalf("export lacks %q (have %v)", want, names)
		}
	}
}

// TestChromeTraceDeterministic: identical recordings export byte-identically.
func TestChromeTraceDeterministic(t *testing.T) {
	write := func() []byte {
		tr, r := buildExportFixture()
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, []*Tracer{tr}, nil, r); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(write(), write()) {
		t.Fatal("identical recordings produced different exports")
	}
}
