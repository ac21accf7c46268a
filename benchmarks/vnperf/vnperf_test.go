package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestSummaries(t *testing.T) {
	s := summarize([]float64{9, 1, 5, 3, 7})
	if s.Median != 5 || s.Q1 != 3 || s.Q3 != 7 || s.Min != 1 || s.N != 5 {
		t.Errorf("summarize odd = %+v", s)
	}
	s = summarize([]float64{4, 1, 3, 2})
	if s.Median != 2.5 || s.Q1 != 1.75 || s.Q3 != 3.25 {
		t.Errorf("summarize even = %+v", s)
	}
	if got := summarize(nil); got != (summary{}) {
		t.Errorf("summarize(nil) = %+v", got)
	}
	if median(nil) != 0 || median([]float64{2}) != 2 {
		t.Error("median of empty or single-element slice")
	}
	lat := make([]int64, 1000)
	for i := range lat {
		lat[i] = int64(i + 1)
	}
	for q, want := range map[float64]int64{0.5: 500, 0.99: 990, 0.999: 999, 1: 1000, 0: 1} {
		if got := percentileNearestRank(lat, q); got != want {
			t.Errorf("percentileNearestRank(q=%v) = %d, want %d", q, got, want)
		}
	}
	if percentileNearestRank(nil, 0.5) != 0 {
		t.Error("percentile of no samples")
	}
	if relSpread(100, 110) != 0.1 || relSpread(0, 0) != 0 || !math.IsInf(relSpread(0, 1), 1) {
		t.Error("relSpread")
	}
}

// benchmarkJSON is the shape of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func keysOf[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s:\n got  %v\n want %v", what, got, want)
	}
}

// TestSchemaConsistency runs every workload at toy size, untraced and
// traced, and checks that what it emits and what BENCHMARK.json lists are
// the same names with the same units, in both directions.
func TestSchemaConsistency(t *testing.T) {
	b := loadBenchmarkJSON(t)

	var names []string
	for i, m := range b.EndToEnd {
		names = append(names, m.Name)
		if i < len(endToEnd) {
			if g := endToEnd[i]; g.name != m.Name || g.unit != m.Unit || g.better != m.Better || g.bound != m.Bound {
				t.Errorf("end_to_end[%d]: BENCHMARK.json has %+v, the harness %+v", i, m, g)
			}
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	var e2eNames []string
	for _, m := range endToEnd {
		e2eNames = append(e2eNames, m.name)
	}
	sameNames(t, "end_to_end names", names, e2eNames)

	names = nil
	units := map[string]string{}
	for _, m := range b.PerLayer {
		names = append(names, m.Name)
		units[m.Name] = m.Unit + "/" + m.Better
	}
	var layerNames []string
	for _, m := range perLayer {
		layerNames = append(layerNames, m.name)
		if units[m.name] != m.unit+"/"+m.better {
			t.Errorf("per_layer %s: BENCHMARK.json has %q, the harness %q", m.name, units[m.name], m.unit+"/"+m.better)
		}
	}
	sameNames(t, "per_layer names", names, layerNames)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}

	names = nil
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if d := workloadByName(w.Name); d != nil && w.Why != d.loop+"; "+d.why {
			t.Errorf("workload %s: BENCHMARK.json says %q, the harness %q", w.Name, w.Why, d.loop+"; "+d.why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	var wlNames []string
	for _, w := range workloads {
		wlNames = append(wlNames, w.name)
	}
	sameNames(t, "workload names", names, wlNames)

	for _, w := range workloads {
		cfg := runCfg{seed: 1, toy: true}
		res, err := e2eMode(w, cfg, 0.05, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(res.gate) > 0 {
			t.Errorf("%s: correctness gate tripped: %v", w.name, res.gate)
		}
		sameNames(t, w.name+" end-to-end output", keysOf(res.metrics), e2eNames)
		for k, m := range res.metrics {
			v := m.Value
			// A toy repetition can be shorter than the kernel's CPU accounting
			// resolves; every other metric must be a positive number.
			if v < 0 || (v == 0 && k != "cpu_ns_per_op") || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be a positive number", w.name, k, v)
			}
		}

		traceFile := filepath.Join(t.TempDir(), "trace.json")
		res, err = tracedMode(w, cfg, options{seconds: 0.05, traceOut: traceFile}, io.Discard)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if len(res.gate) > 0 {
			t.Errorf("%s traced: correctness gate tripped: %v", w.name, res.gate)
		}
		sameNames(t, w.name+" per-layer output", keysOf(res.metrics), layerNames)
		var sum float64
		for k, m := range res.metrics {
			if strings.HasSuffix(k, "cpu_frac") {
				sum += m.Value
			}
		}
		// A toy repetition can be over before the profiler's first tick.
		if sum != 0 && math.Abs(sum-1) > 0.02 {
			t.Errorf("%s: cpu fractions sum to %v", w.name, sum)
		}

		data, err := os.ReadFile(traceFile)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: trace file does not load: %v", w.name, err)
		}
		seen := map[string]bool{}
		for _, ev := range doc.TraceEvents {
			seen[ev["name"].(string)] = true
		}
		for _, want := range []string{"setup", "run", "drain", "harvest", "shutdown", "op", "probes"} {
			if !seen[want] {
				t.Errorf("%s: trace file has no %q span", w.name, want)
			}
		}
	}
}

// TestDigest: the virtual-time digest is a function of the seed alone, and
// of the seed indeed wherever the workload has generated inputs.
func TestDigest(t *testing.T) {
	for _, w := range workloads {
		digest := func(seed int64) uint64 {
			r, err := runRep(w, runCfg{seed: seed, toy: true}, nil)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if len(r.out.gate) > 0 {
				t.Fatalf("%s seed %d: %v", w.name, seed, r.out.gate)
			}
			return r.digest
		}
		a, b, c := digest(1), digest(1), digest(2)
		if a != b {
			t.Errorf("%s: two runs of seed 1 gave digests %016x and %016x", w.name, a, b)
		}
		if a == c && w.name != "overcommit-cs" { // which has no generated input
			t.Errorf("%s: seeds 1 and 2 gave the same digest %016x", w.name, a)
		}
	}
}

// TestGateTrips: a ledger mismatch makes the command print correct=false and
// exit non-zero.
func TestGateTrips(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-workload", "am-stream", "-toy", "-seconds", "0.05"}
	if code := realMain(args, &out, &errOut); code != 0 {
		t.Fatalf("clean run exited %d: %s", code, errOut.String())
	}
	out.Reset()
	if code := realMain(append(args, "-break-ledger"), &out, &errOut); code == 0 {
		t.Fatal("run with a broken ledger exited 0")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Errorf("result after a ledger breach: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
	if !strings.Contains(errOut.String(), "CORRECTNESS") {
		t.Errorf("no breach reported on stderr: %q", errOut.String())
	}
}

// A minimal pprof encoder, the mirror image of parseProfile, for the canned
// profile below.
type pbEnc struct{ bytes.Buffer }

func (e *pbEnc) varint(v uint64) {
	for v >= 0x80 {
		e.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	e.WriteByte(byte(v))
}

func (e *pbEnc) uintField(num int, v uint64) {
	e.varint(uint64(num)<<3 | wireVarint)
	e.varint(v)
}

func (e *pbEnc) bytesField(num int, b []byte) {
	e.varint(uint64(num)<<3 | wireBytes)
	e.varint(uint64(len(b)))
	e.Write(b)
}

func packed(vs ...uint64) []byte {
	var e pbEnc
	for _, v := range vs {
		e.varint(v)
	}
	return e.Bytes()
}

// cannedProfile encodes stacks (leaf first) with their CPU nanoseconds.
func cannedProfile(t *testing.T, stacks [][]string, nanos []int64) []byte {
	t.Helper()
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	funcID := map[string]uint64{}
	var prof pbEnc
	for i, stack := range stacks {
		var locs []uint64
		for _, fn := range stack {
			if funcID[fn] == 0 {
				funcID[fn] = uint64(len(funcID) + 1)
			}
			locs = append(locs, funcID[fn]) // one location per function, same id
		}
		var s pbEnc
		s.bytesField(1, packed(locs...))
		s.bytesField(2, packed(1, uint64(nanos[i])))
		prof.bytesField(2, s.Bytes())
	}
	for fn, id := range funcID {
		var line pbEnc
		line.uintField(1, id)
		var loc pbEnc
		loc.uintField(1, id)
		loc.bytesField(4, line.Bytes())
		prof.bytesField(4, loc.Bytes())
		var f pbEnc
		f.uintField(1, id)
		f.uintField(2, intern(fn))
		prof.bytesField(5, f.Bytes())
	}
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestProfileBucketing(t *testing.T) {
	stacks := [][]string{
		{"virtnet/internal/sim.(*Engine).stepBounded", "virtnet/internal/sim.(*Engine).RunUntil", "main.(*amStream).run"},
		{"virtnet/internal/nic.(*NIC).sendData", "virtnet/internal/sim.(*Engine).runProc"},
		{"virtnet/internal/trace.(*Counters).Add", "virtnet/internal/nic.(*NIC).sendData"},
		{"runtime.futex", "runtime.notewakeup", "runtime.chansend", "virtnet/internal/sim.(*Proc).yield"},
		{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "virtnet/internal/rpc.(*Client).send"},
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"runtime.memmove", "virtnet/internal/core.(*Endpoint).post"},
		{"main.(*amStream).harvest", "main.runRep"},
		{"sort.insertionSort", "virtnet/internal/sim.(*Coordinator).flush"},
		{"virtnet/internal/mpi.(*Comm).Send"},
	}
	nanos := []int64{300, 200, 50, 150, 40, 60, 30, 20, 100, 50}
	samples, err := parseProfile(cannedProfile(t, stacks, nanos))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("parsed %d samples, encoded %d", len(samples), len(stacks))
	}
	for i, s := range samples {
		if strings.Join(s.stack, ";") != strings.Join(stacks[i], ";") || s.value != nanos[i] {
			t.Errorf("sample %d = %v %d, want %v %d", i, s.stack, s.value, stacks[i], nanos[i])
		}
	}
	fr := cpuFractions(samples)
	want := map[string]float64{
		"sim": 0.30, "nic": 0.20, "trace": 0.05, bucketSched: 0.15, bucketGC: 0.10,
		bucketHarness: 0.02, bucketOther: 0.18, // memmove + sort + an unlisted package
	}
	var sum float64
	for b, f := range fr {
		sum += f
		if math.Abs(f-want[b]) > 1e-9 {
			t.Errorf("bucket %s = %v, want %v", b, f, want[b])
		}
	}
	if math.Abs(sum-1) > 0.02 {
		t.Errorf("fractions sum to %v", sum)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}
