// Command phoenix-bench regenerates the evaluation of "Improving
// Logging and Recovery Performance in Phoenix/App" (ICDE 2004):
// Tables 4-8, Figure 9 and the Section 5.5.2 multi-call analysis, each
// printed next to the numbers the paper reports.
//
// Usage:
//
//	phoenix-bench                         # run everything at full fidelity
//	phoenix-bench -experiment table4      # one experiment
//	phoenix-bench -scale 0.05 -calls 30   # 20x compressed clock, fewer calls
//	phoenix-bench -list                   # show experiment IDs
//	phoenix-bench -json                   # machine-readable tables + metrics
//	phoenix-bench -metrics=false          # suppress the per-run metric dump
//	phoenix-bench -trace                  # flight recorder on: per-stage p50/p99
//
// Each experiment also reports the runtime metrics it generated — the
// obs counter deltas for that run: log appends and forces by site,
// interceptions by algorithm, record counts by kind. The counters are
// the same ones the tests assert the paper's invariants on.
//
// The simulated disks sleep on a scalable clock: -scale 1 runs in real
// time (a few minutes for the full suite); smaller scales compress the
// sleeps while reporting identical model-time results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/bench"
	"repro/internal/obs"
)

// runResult is one experiment's JSON form: the rendered table plus the
// metric deltas the run produced.
type runResult struct {
	ID    string     `json:"id"`
	Title string     `json:"title"`
	Cols  []string   `json:"cols"`
	Rows  [][]string `json:"rows"`
	Notes []string   `json:"notes,omitempty"`
	// AllocsPerOp is the heap allocations the experiment performed per
	// measured call (runtime.MemStats.Mallocs delta over -calls) — the
	// perf-trajectory number the allocation-regression gates watch.
	AllocsPerOp float64      `json:"allocs_per_op"`
	Metrics     obs.Snapshot `json:"metrics"`
}

// mallocs reads the process-wide cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// writeStageLatencies prints the per-stage trace latency quantiles an
// experiment's run produced (-trace mode; the histograms are in the
// metric delta, so JSON mode already carries them).
func writeStageLatencies(w io.Writer, id string, delta obs.Snapshot) {
	wrote := false
	for _, name := range obs.TraceStageMicros {
		h := delta.HistogramFor(name)
		if h.Count == 0 {
			continue
		}
		if !wrote {
			fmt.Fprintf(w, "%s — trace stage latencies (model-time µs)\n", id)
			wrote = true
		}
		stage := strings.TrimSuffix(strings.TrimPrefix(name, "trace.stage."), "_micros")
		fmt.Fprintf(w, "  %-20s %7d spans   p50 %6dµs   p99 %6dµs\n",
			stage, h.Count, h.Quantile(0.50), h.Quantile(0.99))
	}
	if wrote {
		fmt.Fprintln(w)
	}
}

func main() {
	var (
		experiment  = flag.String("experiment", "", "experiment ID to run (default: all)")
		scale       = flag.Float64("scale", 0.2, "clock scale: 1 = real time, 0.05 = 20x compressed")
		calls       = flag.Int("calls", 60, "iterations per measured cell")
		seed        = flag.Int64("seed", 20040330, "random seed for jitter and phase noise")
		list        = flag.Bool("list", false, "list experiment IDs and exit")
		jsonOut     = flag.Bool("json", false, "emit tables and metric snapshots as JSON")
		showMetrics = flag.Bool("metrics", true, "print the metric deltas of each experiment")
		traceOn     = flag.Bool("trace", false, "wire a flight recorder into every universe and print per-stage trace latencies")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := bench.Options{Scale: *scale, Calls: *calls, Seed: *seed, Trace: *traceOn}.Defaults()

	var exps []*bench.Experiment
	if *experiment != "" {
		e, ok := bench.ByID(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "phoenix-bench: unknown experiment %q (try -list)\n", *experiment)
			os.Exit(2)
		}
		exps = append(exps, e)
	} else {
		exps = bench.All()
	}

	var results []runResult
	for _, e := range exps {
		if !*jsonOut {
			fmt.Printf("running %s ...\n", e.ID)
		}
		// Experiments build their universes without an explicit
		// registry, so their runtime metrics land in the default one;
		// the snapshot diff isolates this experiment's share.
		before := obs.Default().Snapshot()
		mallocsBefore := mallocs()
		tab, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "phoenix-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		allocsPerOp := float64(mallocs()-mallocsBefore) / float64(opts.Calls)
		delta := obs.Default().Snapshot().Diff(before)
		if *jsonOut {
			results = append(results, runResult{
				ID: tab.ID, Title: tab.Title, Cols: tab.Cols,
				Rows: tab.Rows, Notes: tab.Notes,
				AllocsPerOp: allocsPerOp, Metrics: delta,
			})
			continue
		}
		tab.Render(os.Stdout)
		if *showMetrics && !delta.Empty() {
			fmt.Printf("%s — runtime metrics for this run\n", tab.ID)
			delta.WriteText(os.Stdout, "  ")
			fmt.Printf("  allocs/op (process-wide, over %d calls): %.0f\n\n", opts.Calls, allocsPerOp)
		}
		if *traceOn {
			writeStageLatencies(os.Stdout, tab.ID, delta)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Experiments []runResult `json:"experiments"`
		}{results}); err != nil {
			fmt.Fprintf(os.Stderr, "phoenix-bench: encode: %v\n", err)
			os.Exit(1)
		}
	}
}
