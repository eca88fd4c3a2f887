package core

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/ids"
	"repro/internal/obs/trace"
	"repro/internal/wal"
)

// This file is the offline half of causal tracing: phoenix-trace
// merges flight-recorder dumps (the in-memory spans a crash dump
// preserved) with log scans (the trace-carrying records that survived
// by being durable) into per-trace timelines. The two sources stitch
// on TraceID — the log gives the durable skeleton with LSNs, the dumps
// give the timing — and a call that crossed a crash shows up as one
// trace holding both its pre-crash spans/records and the StageReplay
// span recovery recorded at the same LSN after restart.

// TimelineEvent is one entry of a trace's merged timeline.
type TimelineEvent struct {
	// Kind is "span" (from a flight-recorder dump) or "record" (from a
	// log scan).
	Kind string `json:"kind"`
	// Time is a span's universe-clock start in unix nanoseconds. Log
	// records carry no clock, so a record inherits the time of a span
	// at the same LSN when one survived (0 otherwise — the record still
	// orders by LSN).
	Time int64 `json:"time,omitempty"`
	// Dur is a span's duration in nanoseconds.
	Dur int64 `json:"dur,omitempty"`
	// Stage names a span's leg; Rec names a record's kind.
	Stage  string `json:"stage,omitempty"`
	Rec    string `json:"rec,omitempty"`
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	LSN    uint64 `json:"lsn,omitempty"`
	Proc   string `json:"proc,omitempty"`
	Method string `json:"method,omitempty"`
	// Source is the file this event came from (a .ftr dump or a .log).
	Source string `json:"source,omitempty"`
}

// Timeline is every surviving event of one trace, in causal order.
type Timeline struct {
	Trace  uint64          `json:"trace"`
	Events []TimelineEvent `json:"events"`
}

// TraceTimelines builds per-trace timelines from recovery logs and
// flight-recorder dumps. Logs are scanned for records whose header
// carries a trace; untraced records are skipped. The logs
// must not be concurrently owned by live processes.
func TraceTimelines(logs, dumps []string) ([]Timeline, error) {
	byTrace := make(map[uint64][]TimelineEvent)
	// Successive crashes of a process re-dump the whole ring, so the
	// same span usually appears in several .ftr files; keep one copy.
	type spanKey struct {
		span  uint64
		stage trace.Stage
		start int64
	}
	seen := make(map[spanKey]bool)
	for _, path := range dumps {
		spans, err := trace.LoadDump(path)
		if err != nil {
			return nil, err
		}
		src := filepath.Base(path)
		for _, sp := range spans {
			k := spanKey{sp.Span, sp.Stage, sp.Start}
			if seen[k] {
				continue
			}
			seen[k] = true
			byTrace[sp.Trace] = append(byTrace[sp.Trace], TimelineEvent{
				Kind: "span", Time: sp.Start, Dur: sp.End - sp.Start,
				Stage: sp.Stage.String(), Span: sp.Span, Parent: sp.Parent,
				LSN: sp.LSN, Proc: sp.Proc, Method: sp.Method, Source: src,
			})
		}
	}
	for _, path := range logs {
		if err := scanTraceRecords(path, byTrace); err != nil {
			return nil, err
		}
	}

	out := make([]Timeline, 0, len(byTrace))
	for id, events := range byTrace {
		// A record inherits the earliest span time at its LSN (the
		// WAL-append span, usually), so the text rendering interleaves
		// records where they actually happened.
		lsnTime := make(map[uint64]int64)
		for _, e := range events {
			if e.Kind == "span" && e.LSN != 0 && e.Time != 0 {
				if t, ok := lsnTime[e.LSN]; !ok || e.Time < t {
					lsnTime[e.LSN] = e.Time
				}
			}
		}
		for i := range events {
			if events[i].Kind == "record" {
				events[i].Time = lsnTime[events[i].LSN]
			}
		}
		sort.Slice(events, func(i, j int) bool {
			a, b := events[i], events[j]
			if a.Time != b.Time {
				return a.Time < b.Time
			}
			if a.LSN != b.LSN {
				return a.LSN < b.LSN
			}
			if a.Span != b.Span {
				return a.Span < b.Span
			}
			return a.Kind < b.Kind // "record" before "span" at full ties
		})
		out = append(out, Timeline{Trace: id, Events: events})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Trace < out[j].Trace })
	return out, nil
}

// scanTraceRecords appends a record event for every record in the log
// at path whose header carries a trace (a kind this runtime does not
// write is passed over); an incoming or outgoing call's event names its
// method (decodeRec, the one reader of record bodies, reads each).
func scanTraceRecords(path string, byTrace map[uint64][]TimelineEvent) error {
	log, err := wal.OpenSet(path, nil, 0)
	if err != nil {
		return err
	}
	defer log.Close()
	src := filepath.Base(path)
	proc := strings.TrimSuffix(src, ".log")
	scan := func(rec wal.Record) error {
		v := recFor(rec.Type)
		if v == nil {
			return nil
		}
		if err := decodeRec(rec, v); err != nil {
			return fmt.Errorf("core: record at %v: %w", rec.LSN, err)
		}
		_, _, tr := v.head()
		if tr.IsZero() {
			return nil
		}
		var method string
		switch v := v.(type) {
		case *incomingRec:
			method = v.Call.Method
		case *outgoingRec:
			method = v.Call.Method
		}
		byTrace[tr.Trace] = append(byTrace[tr.Trace], TimelineEvent{
			Kind: "record", Rec: recName(rec.Type), Span: tr.Span,
			LSN: uint64(rec.LSN), Proc: proc, Method: method, Source: src,
		})
		return nil
	}
	return log.Scan(ids.NilLSN, scan)
}

// DiscoverTraceFiles pairs every <proc>.log in dir with its
// flight-recorder dumps (<proc>.ftr.N) — the layout Process.Crash
// writes. It recurses one level (a universe dir holds one subdirectory
// per machine).
func DiscoverTraceFiles(dir string) (logs, dumps []string, err error) {
	for _, pattern := range []string{"*", filepath.Join("*", "*")} {
		matches, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return nil, nil, err
		}
		for _, m := range matches {
			switch {
			case strings.HasSuffix(m, ".log"):
				logs = append(logs, m)
			case strings.Contains(filepath.Base(m), ".ftr."):
				dumps = append(dumps, m)
			}
		}
	}
	sort.Strings(logs)
	sort.Strings(dumps)
	return logs, dumps, nil
}

// WriteTimelines renders timelines as text, one block per trace:
// events in causal order, offsets relative to the trace's first timed
// event, span durations in milliseconds of universe time.
func WriteTimelines(w io.Writer, tls []Timeline) {
	for _, tl := range tls {
		fmt.Fprintf(w, "trace %016x: %d events\n", tl.Trace, len(tl.Events))
		base := int64(0)
		for _, e := range tl.Events {
			if e.Time > 0 {
				base = e.Time
				break
			}
		}
		for _, e := range tl.Events {
			at := "-"
			if e.Time > 0 {
				at = fmt.Sprintf("%+.3fms", float64(e.Time-base)/1e6)
			}
			switch e.Kind {
			case "span":
				fmt.Fprintf(w, "  %12s  span %-17s %9.3fms", at, e.Stage, float64(e.Dur)/1e6)
			default:
				fmt.Fprintf(w, "  %12s  rec  %-17s %11s", at, e.Rec, "")
			}
			if e.LSN > 0 {
				fmt.Fprintf(w, "  lsn=%d", e.LSN)
			}
			if e.Proc != "" {
				fmt.Fprintf(w, "  proc=%s", e.Proc)
			}
			if e.Method != "" {
				fmt.Fprintf(w, "  %s", e.Method)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}
