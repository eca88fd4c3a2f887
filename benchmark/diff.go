package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of a -diff row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictSame       = "same"
	verdictUnresolved = "unresolved" // a side's own spread exceeds the bound: the runs cannot tell
	verdictInfo       = "info"       // per-layer metric: no bound, shown for explanation
	verdictMissing    = "missing"    // present on one side only
)

// diffRow is one workload × metric comparison.
type diffRow struct {
	Workload, Metric, Unit string
	Base, New, Ratio       float64
	Bound                  float64
	Verdict                string
}

// judge compares one end-to-end metric. Worse or better means the new
// value differs from the base by more than the bound in that
// direction; when either side's spread is itself wider than the bound
// the row is unresolved whatever the values say.
func judge(spec metricSpec, base, cur reportMetric) string {
	if base.Spread > spec.Bound || cur.Spread > spec.Bound {
		return verdictUnresolved
	}
	if base.Value == 0 {
		if cur.Value == 0 {
			return verdictSame
		}
		return verdictUnresolved
	}
	change := (cur.Value - base.Value) / base.Value // > 0: grew
	if spec.Better == "higher" {
		change = -change
	}
	switch {
	case change > spec.Bound:
		return verdictWorse
	case change < -spec.Bound:
		return verdictBetter
	default:
		return verdictSame
	}
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// diffReports builds the comparison table and reports whether anything
// got worse: an end-to-end metric beyond its bound, or more failed ops.
func diffReports(base, cur *report) (rows []diffRow, worse bool) {
	type key struct {
		workload string
		traced   bool
	}
	curRuns := map[key]reportRun{}
	for _, r := range cur.Runs {
		curRuns[key{r.Workload, r.Traced}] = r
	}
	for _, b := range base.Runs {
		c, ok := curRuns[key{b.Workload, b.Traced}]
		if !ok {
			rows = append(rows, diffRow{Workload: b.Workload, Metric: "(run)", Verdict: verdictMissing})
			continue
		}
		if c.Failed > b.Failed || (b.Correct && !c.Correct) {
			worse = true
			rows = append(rows, diffRow{Workload: b.Workload, Metric: "failed", Unit: "count",
				Base: float64(b.Failed), New: float64(c.Failed), Verdict: verdictWorse})
		}
		names := make([]string, 0, len(b.Metrics))
		for n := range b.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			bm := b.Metrics[n]
			row := diffRow{Workload: b.Workload, Metric: n, Unit: bm.Unit, Base: bm.Value}
			cm, ok := c.Metrics[n]
			spec, known := specByName(n)
			switch {
			case !ok || !known:
				row.Verdict = verdictMissing
			case b.Traced:
				row.New, row.Verdict = cm.Value, verdictInfo
			default:
				row.New, row.Bound, row.Verdict = cm.Value, spec.Bound, judge(spec, bm, cm)
			}
			if bm.Value != 0 && ok {
				row.Ratio = cm.Value / bm.Value
			}
			worse = worse || row.Verdict == verdictWorse
			rows = append(rows, row)
		}
	}
	return rows, worse
}

// diffFiles prints the comparison of two -out files.
func diffFiles(w io.Writer, basePath, curPath string) (worse bool, err error) {
	base, err := loadReport(basePath)
	if err != nil {
		return false, err
	}
	cur, err := loadReport(curPath)
	if err != nil {
		return false, err
	}
	rows, worse := diffReports(base, cur)
	fmt.Fprintf(w, "%-17s %-38s %14s %14s %8s %6s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")
	counts := map[string]int{}
	for _, r := range rows {
		bound := ""
		if r.Verdict != verdictInfo && r.Verdict != verdictMissing {
			bound = fmt.Sprintf("%.0f%%", r.Bound*100)
		}
		fmt.Fprintf(w, "%-17s %-38s %14.6g %14.6g %8.3f %6s  %s %s\n",
			r.Workload, r.Metric, r.Base, r.New, r.Ratio, bound, r.Verdict, r.Unit)
		counts[r.Verdict]++
	}
	fmt.Fprintf(w, "end-to-end: %d better, %d same, %d worse, %d unresolved\n",
		counts[verdictBetter], counts[verdictSame], counts[verdictWorse], counts[verdictUnresolved])
	return worse, nil
}
