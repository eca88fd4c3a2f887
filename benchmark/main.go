// Command benchmark is the repository's one performance benchmark: what
// a logged call, an application session and a restart cost, end to end
// and layer by layer. See README.md in this directory for the workloads,
// the metrics and how they are expected to move.
//
//	go run ./benchmark                      every workload, untraced and traced
//	go run ./benchmark -workload p2p-mem -trace 0 -seconds 15 -seed 7
//	go run ./benchmark -diff old.json new.json
//
// It drives the runtime only through what the product already exposes
// (the phoenix facade, UniverseConfig.Net and DiskModel, Process
// counters, a per-universe metrics registry, and the public functions
// of the msg, rpc, wal and serial packages), so it keeps compiling
// while the runtime's internals are rewritten.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// defaultSeconds is the measured interval per run; BENCHMARK.json's
// run_seconds is the same number.
const defaultSeconds = 15

// heapBallast is the live heap the generator holds; see runAll.
const heapBallast = 64 << 20

type options struct {
	workloads []string
	seed      uint64
	seconds   float64
	trace     string // "0", "1" or "both"
	quick     bool
	dir       string
	out       string
	spans     string
}

func main() {
	var o options
	var names string
	var diff bool
	flag.StringVar(&names, "workload", "", "comma-separated workload names (default: all)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds per run")
	flag.StringVar(&o.trace, "trace", "both", "0: end-to-end metrics, untraced; 1: per-layer metrics, traced; both")
	flag.BoolVar(&o.quick, "quick", false, "about one second per run and small inputs, for tests")
	flag.StringVar(&o.dir, "dir", "", "where state directories go (default: /dev/shm when writable, else the working directory)")
	flag.StringVar(&o.out, "out", "", "write the full result as JSON to this file")
	flag.StringVar(&o.spans, "spans", "", "write the traced run's spans as JSON to this file (one workload)")
	flag.BoolVar(&diff, "diff", false, "compare two -out files: -diff old.json new.json")
	flag.Parse()

	if diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -diff old.json new.json")
			os.Exit(2)
		}
		worse, err := diffFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if names != "" {
		o.workloads = strings.Split(names, ",")
	}
	if o.quick {
		o.seconds = 1
	}
	// A run that completes prints its result and exits 0 even when the
	// result says correct=false or failed>0: the verdict is in the
	// output. Only a run that could not produce a result exits non-zero.
	if err := runAll(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// report is the fixed schema of the -out file.
type report struct {
	Schema string      `json:"schema"`
	Env    reportEnv   `json:"env"`
	Runs   []reportRun `json:"runs"`
}

const reportSchema = "phoenix-benchmark/1"

type reportEnv struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Device     string  `json:"device"`
}

type reportRun struct {
	Workload  string                  `json:"workload"`
	Traced    bool                    `json:"traced"`
	Seconds   float64                 `json:"seconds"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Correct   bool                    `json:"correct"`
	Problems  []string                `json:"problems,omitempty"`
	Samples   map[string]float64      `json:"samples"`
	Metrics   map[string]reportMetric `json:"metrics"`
}

type reportMetric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}

// runAll runs the selected workloads and prints, per run, every metric
// by name and unit followed by one JSON line; the last line of output
// is therefore the last run's result object.
func runAll(o options, w io.Writer) error {
	selected := workloads
	if len(o.workloads) > 0 {
		selected = nil
		for _, n := range o.workloads {
			ws, ok := workloadByName(strings.TrimSpace(n))
			if !ok {
				return fmt.Errorf("unknown workload %q", n)
			}
			selected = append(selected, ws)
		}
	}
	var modes []bool
	switch o.trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		return fmt.Errorf("-trace wants 0, 1 or both, got %q", o.trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	// The generator keeps a live heap the size a server with real state
	// would have. With only the few MiB this program needs, the
	// collector would start a cycle every few milliseconds of the
	// CPU-bound workloads, and their latency would then follow how much
	// of the second CPU the host happens to leave the collector — swings
	// of 1.5x lasting seconds, measured — and not the code under test.
	ballast := make([]byte, heapBallast)
	defer runtime.KeepAlive(ballast)

	base, device := chooseBaseDir(o.dir)
	if device == "hostfs" {
		fmt.Fprintln(w, "warning: no memory-backed file system is writable; state goes to the working directory and the -mem workloads' latencies include the host's fsync")
	}
	root, err := os.MkdirTemp(base, "phoenix-bench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	// Leave nothing behind when interrupted either.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	cleaner := make(chan struct{})
	go func() {
		defer close(cleaner)
		if _, ok := <-sig; ok {
			os.RemoveAll(root)
			os.Exit(130)
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(sig)
		<-cleaner
	}()

	rep := report{Schema: reportSchema, Env: reportEnv{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit(), Seed: o.seed, Seconds: o.seconds, Device: device,
	}}
	for i, ws := range selected {
		for _, traced := range modes {
			rc := &runCtx{
				seed: o.seed, seconds: o.seconds, traced: traced, quick: o.quick,
				dir: fmt.Sprintf("%s/%d-%t", root, i, traced),
			}
			res, err := runOne(rc, ws, o.spans)
			if err != nil {
				return fmt.Errorf("%s: %w", ws.Name, err)
			}
			run := toReportRun(res)
			rep.Runs = append(rep.Runs, run)
			if err := printRun(w, run); err != nil {
				return err
			}
		}
	}
	if o.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runOne runs one workload once, traced or not, in a private state
// directory.
func runOne(rc *runCtx, ws workloadSpec, spansPath string) (*result, error) {
	if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(rc.dir)
	if rc.traced {
		rc.rec = newRecorder(!ws.Concurrent)
		rc.seams = newSeams(rc.rec)
		tracer = rc.rec
		defer func() { tracer = nil }()
	}
	// Each run starts from a collected heap, whatever ran before it.
	runtime.GC()
	res, err := ws.Run(rc)
	if err != nil {
		return nil, err
	}
	if res.Failed > 0 {
		res.problemf("%d of %d ops failed or returned a wrong result", res.Failed, res.Attempted)
	}
	// An untraced run reports exactly the end-to-end metrics, a traced
	// run exactly the per-layer ones.
	want := endToEnd
	if rc.traced {
		want = perLayer
	}
	metrics := make(map[string]estimate, len(want))
	for _, m := range want {
		e, ok := res.Metrics[m.Name]
		if !ok {
			res.problemf("metric %s was not measured", m.Name)
		}
		metrics[m.Name] = e
	}
	res.Metrics = metrics
	if rc.traced && spansPath != "" {
		if err := writeSpans(spansPath, rc.rec.spans()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func toReportRun(res *result) reportRun {
	run := reportRun{
		Workload: res.Workload, Traced: res.Traced, Seconds: res.Seconds,
		Attempted: res.Attempted, Failed: res.Failed,
		Correct: len(res.Problems) == 0, Problems: res.Problems,
		Samples: res.Samples, Metrics: map[string]reportMetric{},
	}
	for name, e := range res.Metrics {
		spec, _ := specByName(name)
		run.Metrics[name] = reportMetric{Value: e.Value, Unit: spec.Unit, Spread: e.Spread}
	}
	return run
}

// printRun prints the run for people, then for the driver: one JSON
// object with exactly the keys correct, attempted, failed and metrics.
func printRun(w io.Writer, run reportRun) error {
	mode := "untraced"
	if run.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, %.3g s) attempted=%d failed=%d correct=%t\n",
		run.Workload, mode, run.Seconds, run.Attempted, run.Failed, run.Correct)
	for _, p := range run.Problems {
		fmt.Fprintf(w, "   problem: %s\n", p)
	}
	names := make([]string, 0, len(run.Metrics))
	for n := range run.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := run.Metrics[n]
		fmt.Fprintf(w, "   %-38s %14.6g %s\n", n, m.Value, m.Unit)
	}
	snames := make([]string, 0, len(run.Samples))
	for n := range run.Samples {
		snames = append(snames, n)
	}
	sort.Strings(snames)
	for _, n := range snames {
		fmt.Fprintf(w, "   sample %-31s %14.6g\n", n, run.Samples[n])
	}
	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{run.Correct, run.Attempted, run.Failed, map[string]lineMetric{}}
	for n, m := range run.Metrics {
		line.Metrics[n] = lineMetric{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
