// Package bench regenerates every table and figure of the paper's
// evaluation (Section 5). Each experiment builds a simulated world —
// 7200-RPM disks with the write cache disabled (paper Table 3), a
// network with the paper's measured ~0.2 ms round trip — runs the
// paper's workload, and prints the measured values next to the numbers
// the paper reports.
//
// Timing note: measurements are in model time. The simulated disk
// sleeps on a scalable clock, so a run at Scale 0.05 finishes 20x
// faster while reporting the same model-time latencies; Go execution
// overhead (microseconds) is included in the measurement but is noise
// against rotational delays (milliseconds), exactly as .NET overhead
// was noise in the paper's logging-bound rows. Rows with no logging
// are dominated by Go, not .NET, execution speed: they come out in
// microseconds where the paper reports ~0.6-1.5 ms of remoting
// overhead — the shape (which configurations force the log, and the
// ordering among rows) is what reproduces.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Options tune an experiment run.
type Options struct {
	// Scale compresses simulated sleeps: 1.0 is real time; 0.05 runs
	// 20x faster with identical model-time results.
	Scale float64
	// Calls is the iteration count per measured cell.
	Calls int
	// Recovery workload sizes for Table 7 (calls replayed).
	RecoverySizes []int
	// Seed drives the network jitter.
	Seed int64
	// Dir is scratch space for logs; empty uses a temp dir per run.
	Dir string
	// Trace wires a flight recorder into every universe the experiment
	// builds, so calls run with causal tracing enabled and the trace.*
	// stage histograms land in the default registry (phoenix-bench
	// -trace reports their p50/p99).
	Trace bool
}

// Defaults fills unset fields.
func (o Options) Defaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Calls <= 0 {
		o.Calls = 60
	}
	if len(o.RecoverySizes) == 0 {
		o.RecoverySizes = []int{0, 1000, 2000, 3000, 4000, 5000}
	}
	if o.Seed == 0 {
		o.Seed = 20040330
	}
	return o
}

// Table is a rendered experiment result.
type Table struct {
	ID    string
	Title string
	Cols  []string
	Rows  [][]string
	Notes []string
}

// Render prints the table in a fixed-width layout.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Cols)
	sep := make([]string, len(t.Cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Experiment regenerates one table or figure.
type Experiment struct {
	// ID matches the paper artifact: "table4" ... "table8", "figure9",
	// "multicall", and the extra ablations.
	ID string
	// Title describes the experiment.
	Title string
	// Run executes it.
	Run func(o Options) (*Table, error)
}

var registry = map[string]*Experiment{}

func register(e *Experiment) { registry[e.ID] = e }

// ByID finds an experiment.
func ByID(id string) (*Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns the experiments in a stable order.
func All() []*Experiment {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	// Paper order: tables 4-8, figure 9, then extras.
	order := map[string]int{
		"table4": 1, "table5": 2, "figure9": 3, "table6": 4,
		"table7": 5, "table8": 6, "multicall": 7,
	}
	sort.SliceStable(ids, func(i, j int) bool {
		oi, oki := order[ids[i]]
		oj, okj := order[ids[j]]
		switch {
		case oki && okj:
			return oi < oj
		case oki:
			return true
		case okj:
			return false
		default:
			return ids[i] < ids[j]
		}
	})
	out := make([]*Experiment, len(ids))
	for i, id := range ids {
		out[i] = registry[id]
	}
	return out
}

// ms renders a duration in milliseconds as the paper's tables do.
func ms(d time.Duration) string {
	v := float64(d) / float64(time.Millisecond)
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	case v >= 0.001:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.2e", v)
	}
}
