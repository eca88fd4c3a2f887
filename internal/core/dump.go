package core

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/serial"
	"repro/internal/wal"
)

// DumpLog renders a process recovery log human-readably, one line per
// record — the operational tool for inspecting what a process logged
// and what recovery would replay. It opens the log read-only in the
// sense that it appends nothing; the log must not be concurrently
// owned by a live process.
//
// Each record line carries a status column relative to the well-known
// checkpoint LSN — the mark in the root of the directory given, so a
// log directory copied on its own dumps with it: "ckpt'd" records
// precede it (recovery's pass 1 scan starts past them), "replay"
// records are what a crash right now would scan. A root that fails its
// checksum is reported as such. Records whose type implies a log force
// under every discipline (creation records, Algorithm 3's reply-sent
// markers) are tagged "forced"; the
// actual force count is runtime state the log does not store, so the
// summary reports the implied minimum. The size column is what the
// record takes in the log, payload plus frame; a message record that
// continues its context's chain shows its link back as prev=<LSN>, and
// an incoming line names its target from the context's creation or
// state record (ctx=<N> if that was trimmed).
func DumpLog(w io.Writer, dir string) error {
	log, err := wal.OpenSet(dir, nil, 0)
	if err != nil {
		return err
	}
	defer log.Close()

	// The scan below is the log's tail check: the summary has the end.
	fmt.Fprintf(w, "log %s\n", dir)
	// The root travels with the directory: the mark and watermark are
	// the ones it held when this open read it.
	wk, stable := log.Mark(), log.Stable()
	switch {
	case log.HintsLost():
		fmt.Fprintln(w, "well-known checkpoint mark: lost — the log's root fails its checksum; recovery scans the log from its start")
	case !wk.IsNil():
		fmt.Fprintf(w, "well-known checkpoint mark: %v\n", wk)
	}

	// Per-kind record counts accumulate in a private registry under the
	// same rec.* counters the runtime uses, so the summary reads exactly
	// like a live metrics snapshot of this log's history; a kind the
	// runtime does not write is counted on the summary line.
	reg := obs.NewRegistry()
	recs := obs.RuntimeView(reg)
	records, unknown, impliedForces := 0, 0, 0
	discCounts := make(map[string]int)
	uris := make(map[ids.CompID]ids.URI) // filled from creation and state records
	err = log.Scan(ids.NilLSN, func(rec wal.Record) error {
		records++
		if c := recCounter(recs, rec.Type); c != nil {
			c.Inc()
		} else {
			unknown++
		}
		status := "replay"
		if !wk.IsNil() && rec.LSN < wk {
			status = "ckpt'd"
		}
		if rec.Type == recCreation || rec.Type == recReplySent { // forced under every discipline
			impliedForces++
			status += "+forced"
		}
		algo := dumpDiscipline(rec)
		if algo != "-" {
			discCounts[algo]++
		}
		fmt.Fprintf(w, "%-12v %-17s %-13s %-9s %5dB+%-2d ", rec.LSN, recName(rec.Type), status, algo, len(rec.Payload), rec.Size-len(rec.Payload))
		if err := dumpPayload(w, rec, uris); err != nil {
			fmt.Fprintf(w, "<undecodable: %v>", err)
		}
		if !rec.Prev.IsNil() {
			fmt.Fprintf(w, " prev=%v", rec.Prev)
		}
		fmt.Fprintln(w)
		return nil
	})
	if err != nil {
		return err
	}

	st := log.Stats()
	fmt.Fprintf(w, "\nsummary: %d records", records)
	if unknown > 0 {
		fmt.Fprintf(w, " (%d of unknown kind)", unknown)
	}
	fmt.Fprintf(w, " in LSNs %v..%v, >=%d forces implied by record kinds; stable watermark", log.Start(), log.End(), impliedForces)
	if stable.IsNil() {
		fmt.Fprint(w, " none")
	} else {
		fmt.Fprintf(w, " %v", stable)
	}
	fmt.Fprintf(w, "; read with %d device reads (%d bytes)\n", st.ReadOps, st.ReadBytes)
	if len(discCounts) > 0 {
		algos := make([]string, 0, len(discCounts))
		for a := range discCounts {
			algos = append(algos, a)
		}
		sort.Strings(algos)
		fmt.Fprintf(w, "  per-discipline:")
		for _, a := range algos {
			fmt.Fprintf(w, " %s=%d", a, discCounts[a])
		}
		fmt.Fprintln(w)
	}
	reg.Snapshot().WriteText(w, "  ")
	return nil
}

// dumpDiscipline labels a record with the logging discipline that
// produced it, from its kind (and, for message 1, whether the caller
// was external). Lifecycle records (creation, state, checkpoint
// brackets) get "-"; message records get the algorithm — exact where
// the record kind pins it (reply-sent is Algorithm 3, outgoing sends
// only exist under Algorithm 1), and a "A1|A2"-style range where the
// log alone cannot distinguish the static mode.
func dumpDiscipline(rec wal.Record) string {
	switch rec.Type {
	case recIncoming:
		_, id, err := msgHead(rec)
		if err != nil {
			return "?"
		}
		if id.IsZero() {
			return "A1|A3"
		}
		return "A1|A2"
	case recReplySent:
		return "A3"
	case recReplyContent:
		return "A1"
	case recOutgoing:
		return "A1"
	case recOutgoingReply:
		return "A1|A2|A5"
	default: // creation, state and checkpoint records
		return "-"
	}
}

// dumpPayload renders a record: the owner and trace its header names
// (a checkpoint record's owner, 0, is left out), then its body. uris
// holds each context's URI from its creation or state record.
func dumpPayload(w io.Writer, rec wal.Record, uris map[ids.CompID]ids.URI) error {
	v := recFor(rec.Type)
	if v == nil {
		fmt.Fprintf(w, "unknown record type %d", rec.Type)
		return nil
	}
	if err := decodeRec(rec, v); err != nil {
		return err
	}
	_, ctx, tr := v.head()
	if ctx != 0 {
		fmt.Fprintf(w, "ctx=%d ", ctx)
	}
	switch v := v.(type) {
	case *creationRec:
		uris[ctx] = v.URI
		fmt.Fprintf(w, "uri=%s comps=%d", v.URI, len(v.Comps))
		for _, c := range v.Comps {
			fmt.Fprintf(w, " [%d %s %s %s]", c.ID, c.Name, c.Type, c.GoType)
		}
	case *incomingRec:
		caller := "external"
		if !v.Call.ID.IsZero() {
			caller = v.Call.ID.String()
		}
		target, ok := uris[ctx]
		if !ok {
			target = ids.URI(fmt.Sprintf("ctx=%d", ctx))
		}
		fmt.Fprintf(w, "%s.%s from %s", target, v.Call.Method, caller)
	case *replySentRec:
		fmt.Fprint(w, "short record: sent marker only")
	case *replyContentRec:
		fmt.Fprintf(w, "call=%v results=%dB appErr=%q", v.Reply.ID, len(v.Reply.Results), v.Reply.AppErr)
	case *outgoingRec:
		fmt.Fprintf(w, "-> %s seq=%d", v.Call.Method, v.Call.ID.Seq)
	case *outgoingReplyRec:
		fmt.Fprintf(w, "seq=%d results=%dB appErr=%q", v.Reply.ID.Seq, len(v.Reply.Results), v.Reply.AppErr)
	case *ctxStateRec:
		uris[ctx] = v.URI
		fmt.Fprintf(w, "uri=%s comps=%d lastOutSeq=%d lastCalls=%d",
			v.URI, len(v.Comps), v.LastOutSeq, len(v.LastCalls))
		for _, c := range v.Comps {
			st, err := serial.DecodeState(c.State)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " [%s: %d fields]", c.Name, len(st.Fields))
		}
	case *beginCkptRec:
		fmt.Fprint(w, "begin process checkpoint")
	case *ckptCtxTableRec:
		fmt.Fprintf(w, "context table: %d entries", len(v.Entries))
		for _, e := range v.Entries {
			fmt.Fprintf(w, " [ctx=%d restart=%v head=%v]", e.Ctx, e.RestartLSN, e.ChainHead)
		}
	case *ckptLastCallRec:
		fmt.Fprintf(w, "last call table: %d entries", len(v.Entries))
	case *endCkptRec:
		fmt.Fprintf(w, "end process checkpoint (begin=%v)", v.BeginLSN)
	}
	if !tr.IsZero() { // the TraceID phoenix-trace keys timelines on
		fmt.Fprintf(w, " trace=%016x/%d", tr.Trace, tr.Span)
	}
	return nil
}
