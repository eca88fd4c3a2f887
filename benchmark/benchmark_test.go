package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors /BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesSpec keeps the declaration the driver reads
// in step with the names, units, directions and bounds the program
// uses.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, program default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if got := strings.Join(b.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command = %q", got)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: declared %q, implemented %q (or the why differs)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(b.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	for i, m := range b.EndToEnd {
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("end-to-end %d: declared %+v, implemented %+v", i, m, s)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		s := perLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per-layer %d: declared %+v, implemented %+v", i, m, s)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestQuickSmoke runs every workload end to end, untraced and traced,
// on small inputs, and checks what the driver will check: every
// declared metric emitted exactly once per run, the result line's
// shape, and that outputs were correct.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkJSON(t)
	out := filepath.Join(t.TempDir(), "out.json")
	var stdout bytes.Buffer
	if err := runAll(options{seed: 3, seconds: 0.3, trace: "both", quick: true, out: out}, &stdout); err != nil {
		t.Fatal(err)
	}
	rep, err := loadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2*len(b.Workloads) {
		t.Fatalf("%d runs, want %d", len(rep.Runs), 2*len(b.Workloads))
	}
	if rep.Env.NProc < 1 || rep.Env.Go == "" || rep.Env.Seed != 3 {
		t.Errorf("environment not recorded: %+v", rep.Env)
	}
	for i, run := range rep.Runs {
		w := b.Workloads[i/2]
		if run.Workload != w.Name || run.Traced != (i%2 == 1) {
			t.Fatalf("run %d is %s traced=%t, want %s", i, run.Workload, run.Traced, w.Name)
		}
		if !run.Correct || run.Failed != 0 || run.Attempted < 1 {
			t.Errorf("%s traced=%t: correct=%t failed=%d attempted=%d problems=%v",
				run.Workload, run.Traced, run.Correct, run.Failed, run.Attempted, run.Problems)
		}
		want := map[string]string{}
		if run.Traced {
			for _, m := range b.PerLayer {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range b.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		for name, m := range run.Metrics {
			unit, ok := want[name]
			if !ok {
				t.Errorf("%s traced=%t emits undeclared metric %s", run.Workload, run.Traced, name)
				continue
			}
			if m.Unit != unit {
				t.Errorf("%s %s: unit %q, declared %q", run.Workload, name, m.Unit, unit)
			}
			if !run.Traced && !(m.Value > 0) {
				t.Errorf("%s %s = %v: end-to-end metrics must never be 0", run.Workload, name, m.Value)
			}
			delete(want, name)
		}
		for name := range want {
			t.Errorf("%s traced=%t does not emit %s", run.Workload, run.Traced, name)
		}
	}

	// The last line of output is the last run's result object, with
	// exactly the four keys of the contract.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("result line has %d keys, want 4", len(last))
	}
}

// TestSelfTimeArithmetic: self = span − children, per kind, and the
// recorder's running reduction agrees with the offline one.
func TestSelfTimeArithmetic(t *testing.T) {
	// call(100) ⊃ net.send(80) ⊃ net.handle(70) ⊃ {app.execute(10), disk.sync(30)}
	spans := []span{
		{Start: 0, Dur: 100, Parent: -1, Kind: spanCall},
		{Start: 10, Dur: 80, Parent: 0, Kind: spanNetSend},
		{Start: 15, Dur: 70, Parent: 1, Kind: spanNetHandle},
		{Start: 20, Dur: 10, Parent: 2, Kind: spanAppExec},
		{Start: 40, Dur: 30, Parent: 2, Kind: spanDiskSync},
		{Start: 200, Dur: -1, Parent: -1, Kind: spanCall}, // never closed: skipped
	}
	got := selfTimes(spans)
	want := map[spanKind]kindTotals{
		spanCall:      {Count: 1, Total: 100, Self: 20},
		spanNetSend:   {Count: 1, Total: 80, Self: 10},
		spanNetHandle: {Count: 1, Total: 70, Self: 30},
		spanAppExec:   {Count: 1, Total: 10, Self: 10},
		spanDiskSync:  {Count: 1, Total: 30, Self: 30},
	}
	var selfSum int64
	for k := spanKind(0); k < numSpanKinds; k++ {
		if got[k] != want[k] {
			t.Errorf("%s: got %+v, want %+v", spanKindNames[k], got[k], want[k])
		}
		selfSum += got[k].Self
	}
	if selfSum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", selfSum)
	}

	rec := newRecorder(true)
	if tok := rec.begin(spanCall); tok.recorded() {
		t.Error("a recorder that is off handed out a live token")
	}
	rec.on.Store(true)
	for i := 0; i < 50; i++ {
		root := rec.begin(spanCall)
		send := rec.begin(spanNetSend)
		handle := rec.begin(spanNetHandle)
		app := rec.begin(spanAppExec)
		time.Sleep(20 * time.Microsecond)
		rec.end(app)
		rec.end(handle)
		rec.end(send)
		rec.end(root)
	}
	online, offline := rec.reduce(), selfTimes(rec.spans())
	if online != offline {
		t.Errorf("running reduction %+v differs from offline %+v", online, offline)
	}
	var self int64
	for _, k := range online {
		self += k.Self
	}
	if self != online[spanCall].Total {
		t.Errorf("self times sum to %d, root spans to %d", self, online[spanCall].Total)
	}
}

// TestWindowReduction: each figure comes from the quietest window, the
// tail from each window's own percentile.
func TestWindowReduction(t *testing.T) {
	mk := func(base float64) window {
		w := window{ops: 100, wall: time.Duration(base * 100 * float64(time.Millisecond)), cpu: time.Duration(base * 100 * float64(time.Millisecond)), mallocs: 700}
		for i := 0; i < 100; i++ {
			l := base
			if i >= 98 {
				l = 10 * base // two slow ops: the window's p99 sees them
			}
			w.latMs = append(w.latMs, l)
		}
		return w
	}
	st := reduceWindows([]window{mk(3), mk(1), mk(2)}, 0.99)
	if st.p50.Value != 1 {
		t.Errorf("p50 = %v, want the quietest window's 1", st.p50.Value)
	}
	if st.tail.Value < 9 || st.tail.Value > 10 {
		t.Errorf("tail = %v, want the quietest window's p99 (about 10)", st.tail.Value)
	}
	if want := 100 / 0.1; st.opsPerS.Value != want {
		t.Errorf("ops/s = %v, want %v", st.opsPerS.Value, want)
	}
	if st.allocs.Value != 7 {
		t.Errorf("allocs/op = %v, want 7", st.allocs.Value)
	}
	if st.ops != 300 {
		t.Errorf("ops = %d, want 300", st.ops)
	}
}

// TestOpenLoopCountsFromDueTime stalls one call on a single-threaded
// server: the arrivals queued behind it must be charged the wait, which
// a clock started when the worker picks them up would hide.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 80 * time.Millisecond
	calls := 0
	samples := runOpenPhase(200, 300*time.Millisecond, 1, []int{0}, func(int) bool {
		calls++
		if calls == 5 {
			time.Sleep(stall)
		}
		return true
	})
	if len(samples) != 60 {
		t.Fatalf("%d arrivals, want 60", len(samples))
	}
	// Arrival 5 is due 5 ms after the stalled one began: it waits for
	// nearly the whole stall although its own service takes no time.
	if got := samples[5].latMs; got < 60 {
		t.Errorf("arrival behind the stall has latency %.1f ms; the stall was not counted", got)
	}
	if got := samples[2].latMs; got > 20 {
		t.Errorf("arrival before the stall has latency %.1f ms", got)
	}
	// The backlog drains at service speed, so late arrivals are clean.
	if got := samples[59].latMs; got > 20 {
		t.Errorf("arrival long after the stall has latency %.1f ms", got)
	}
	for i, s := range samples {
		if want := float64(i) * 5; s.dueMs < want-0.001 || s.dueMs > want+0.001 {
			t.Fatalf("arrival %d due at %.3f ms, want %.0f: arrivals must stay evenly spaced", i, s.dueMs, want)
		}
	}
	ps := reducePhase(200, 300*time.Millisecond, samples)
	if ps.failed != 0 || ps.n != 60 {
		t.Errorf("phase: %+v", ps)
	}
}

// TestDiffVerdicts covers the -diff table: better, worse, same,
// unresolved, and the non-zero exit conditions.
func TestDiffVerdicts(t *testing.T) {
	mkRun := func(p50, spread, allocs, rate float64, failed int) reportRun {
		return reportRun{Workload: "p2p-mem", Correct: failed == 0, Failed: failed, Attempted: 100,
			Metrics: map[string]reportMetric{
				"op_p50_ms":     {Value: p50, Unit: "ms", Spread: spread},
				"allocs_per_op": {Value: allocs, Unit: "count"},
				"ops_per_s":     {Value: rate, Unit: "1/s"},
			}}
	}
	verdicts := func(base, cur reportRun) (map[string]string, bool) {
		rows, worse := diffReports(&report{Runs: []reportRun{base}}, &report{Runs: []reportRun{cur}})
		m := map[string]string{}
		for _, r := range rows {
			m[r.Metric] = r.Verdict
		}
		return m, worse
	}
	base := mkRun(1.0, 0.01, 782, 1000, 0)

	v, worse := verdicts(base, mkRun(1.02, 0.01, 782, 1010, 0))
	if worse || v["op_p50_ms"] != verdictSame || v["allocs_per_op"] != verdictSame || v["ops_per_s"] != verdictSame {
		t.Errorf("within bounds: %v worse=%t", v, worse)
	}
	v, worse = verdicts(base, mkRun(0.5, 0.01, 400, 2000, 0))
	if worse || v["op_p50_ms"] != verdictBetter || v["allocs_per_op"] != verdictBetter || v["ops_per_s"] != verdictBetter {
		t.Errorf("improved: %v worse=%t", v, worse)
	}
	v, worse = verdicts(base, mkRun(1.5, 0.01, 900, 500, 0))
	if !worse || v["op_p50_ms"] != verdictWorse || v["allocs_per_op"] != verdictWorse || v["ops_per_s"] != verdictWorse {
		t.Errorf("regressed: %v worse=%t", v, worse)
	}
	// A side whose own spread exceeds the bound cannot resolve a change.
	v, worse = verdicts(base, mkRun(1.5, 0.5, 782, 1000, 0))
	if worse || v["op_p50_ms"] != verdictUnresolved {
		t.Errorf("noisy: %v worse=%t", v, worse)
	}
	// More failed ops is worse whatever the metrics say.
	if _, worse = verdicts(base, mkRun(1.0, 0.01, 782, 1000, 3)); !worse {
		t.Error("a run with more failures was not reported as worse")
	}

	var buf bytes.Buffer
	dir := t.TempDir()
	for name, run := range map[string]reportRun{"a.json": base, "b.json": mkRun(1.5, 0.01, 782, 1000, 0)} {
		data, _ := json.Marshal(report{Schema: reportSchema, Runs: []reportRun{run}})
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	worse, err := diffFiles(&buf, filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"))
	if err != nil || !worse {
		t.Errorf("diffFiles: worse=%t err=%v", worse, err)
	}
	if !strings.Contains(buf.String(), "op_p50_ms") || !strings.Contains(buf.String(), verdictWorse) {
		t.Errorf("table lacks the regressed row:\n%s", buf.String())
	}
}
