package core

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/obs/trace"
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
// checkpoint LSN — the marks in the root of the directory given,
// shards.meta, so a log directory copied on its own dumps with them:
// "ckpt'd" records precede it (recovery's pass 1 scan starts past
// them), "replay" records are what a crash right now would scan. A root
// whose hint section fails its checksum is reported as such. Records
// whose type implies a log force under every discipline (creation
// records, Algorithm 3's reply-sent markers) are tagged "forced"; the
// actual force count is runtime state the log does not store, so the
// summary reports the implied minimum. The size column is what the
// record takes in the log, payload plus frame; a message record that
// continues its context's chain shows its link back as prev=<LSN>.
func DumpLog(w io.Writer, dir string) error {
	log, err := wal.OpenSet(dir, nil, 0)
	if err != nil {
		return err
	}
	defer log.Close()

	// Each stream's scan below is its tail check: the summary has the ends.
	shards := log.Shards()
	fmt.Fprintf(w, "log %s: %d shard(s)\n", dir, len(shards))
	// The root travels with the directory: the marks and watermarks are
	// the ones shards.meta held when this open read it.
	marks, stable := log.Marks(), log.StableMarks()
	switch {
	case log.HintsLost():
		fmt.Fprintln(w, "well-known checkpoint marks: lost — the hint section of shards.meta is missing or fails its checksum; recovery scans every stream from its start")
	case len(marks) > 0:
		fmt.Fprintf(w, "well-known checkpoint marks:")
		for _, sh := range shards {
			if k, ok := marks[sh.Stream]; ok {
				fmt.Fprintf(w, " %d=%v", sh.Stream, k)
			}
		}
		fmt.Fprintln(w)
	}

	// Per-kind record counts accumulate in a private registry under the
	// same rec.* names the runtime uses, so the summary reads exactly
	// like a live metrics snapshot of this log's history. Discipline
	// attribution replays the adaptive controller's change records as
	// the scan passes them, so each message record is labeled with the
	// discipline that was in force when it was written.
	reg := obs.NewRegistry()
	records, impliedForces := 0, 0
	disc := make(map[methodKey]Discipline)
	mc := make(map[methodKey]bool)
	discCounts := make(map[string]int)
	for _, sh := range shards {
		wk := marks[sh.Stream]
		err = sh.Log.Scan(ids.NilLSN, func(rec wal.Record) error {
			records++
			reg.Counter(recMetricName(rec.Type)).Inc()
			status := "replay"
			if !wk.IsNil() && rec.LSN < wk {
				status = "ckpt'd"
			}
			if forcedKind(rec.Type) {
				impliedForces++
				status += "+forced"
			}
			algo := dumpDiscipline(rec, disc, mc)
			if algo != "-" {
				discCounts[algo]++
			}
			fmt.Fprintf(w, "%-12v %-17s %-13s %-9s %5dB+%-2d ", rec.LSN, recName(rec.Type), status, algo, len(rec.Payload), rec.Size-len(rec.Payload))
			if err := dumpPayload(w, rec); err != nil {
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
	}

	st := log.Stats()
	fmt.Fprintf(w, "\nsummary: %d records in LSNs", records)
	for _, sh := range shards {
		fmt.Fprintf(w, " %v..%v", sh.Log.Start(), sh.Log.End())
		if len(shards) > 1 {
			fmt.Fprintf(w, " (era %d)", sh.Era)
		}
	}
	fmt.Fprintf(w, ", >=%d forces implied by record kinds; stable watermark", impliedForces)
	if len(stable) == 0 {
		fmt.Fprint(w, " none")
	}
	for _, sh := range shards {
		if mark, ok := stable[sh.Stream]; ok {
			fmt.Fprintf(w, " %v", mark)
		}
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
	// Final adaptive assignments: the state the change records leave
	// behind — what a recovery of this log would restore.
	var keys []methodKey
	for k := range disc {
		if disc[k] != DiscBaseline || mc[k] {
			keys = append(keys, k)
		}
	}
	if len(keys) > 0 {
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].ctx != keys[j].ctx {
				return keys[i].ctx < keys[j].ctx
			}
			return keys[i].method < keys[j].method
		})
		fmt.Fprintf(w, "  adaptive assignments:")
		for _, k := range keys {
			tag := disc[k].String()
			if mc[k] {
				tag += "+mc"
			}
			fmt.Fprintf(w, " ctx=%d.%s=%s", k.ctx, k.method, tag)
		}
		fmt.Fprintln(w)
	}
	reg.Snapshot().WriteText(w, "  ")
	return nil
}

// dumpDiscipline labels a record with the logging discipline that
// produced it, replaying adaptive discipline-change records into the
// attribution maps as the scan passes them. Lifecycle records
// (creation, state, checkpoint brackets) get "-"; message records get
// the algorithm — exact where the record kind pins it (reply-sent is
// Algorithm 3, outgoing sends only exist under Algorithm 1), a
// "A1|A2"-style range where the log alone cannot distinguish the
// static mode, and a "*"-suffixed form where an adaptive promotion was
// in force.
func dumpDiscipline(rec wal.Record, disc map[methodKey]Discipline, mc map[methodKey]bool) string {
	switch rec.Type {
	case recDisciplineChange:
		var v disciplineChangeRec
		if err := decodeRec(rec.Payload, &v); err != nil {
			return "adapt"
		}
		k := methodKey{ctx: v.Ctx, method: v.Method}
		disc[k] = v.To
		mc[k] = v.MultiCall
		return "adapt"
	case recIncoming:
		var v incomingRec
		if err := decodeRec(rec.Payload, &v); err != nil {
			return "?"
		}
		if disc[methodKey{ctx: v.Ctx, method: v.Call.Method}] == DiscAlgo2 {
			return "A2*"
		}
		if v.Call.ID.IsZero() {
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
	case recCreation, recCtxState, recBeginCkpt, recCkptCtxTable, recCkptLastCall, recEndCkpt:
		return "-"
	default:
		return "-"
	}
}

// recMetricName maps a record type to the obs counter name the runtime
// accounts it under (see Process.recCounter for the live equivalent).
func recMetricName(t wal.RecordType) string {
	switch t {
	case recCreation:
		return obs.RecCreation
	case recIncoming:
		return obs.RecIncoming
	case recReplySent:
		return obs.RecReplySent
	case recReplyContent:
		return obs.RecReplyContent
	case recOutgoing:
		return obs.RecOutgoing
	case recOutgoingReply:
		return obs.RecOutgoingReply
	case recCtxState:
		return obs.RecCtxState
	case recBeginCkpt:
		return obs.RecBeginCkpt
	case recCkptCtxTable:
		return obs.RecCkptCtxTable
	case recCkptLastCall:
		return obs.RecCkptLastCall
	case recEndCkpt:
		return obs.RecEndCkpt
	case recDisciplineChange:
		return obs.RecDisciplineChange
	default:
		return fmt.Sprintf("rec.unknown_%d", t)
	}
}

// forcedKind reports whether a record of this type is forced at append
// time under every logging discipline: creation records (Create forces
// before publishing the component), Algorithm 3's reply-sent markers
// ("log the reply-sent record and force"), and adaptive
// discipline-change records (durable before the change takes effect).
// Other kinds may or may not have been forced depending on the
// discipline and on later forces covering them — the log itself does
// not say.
func forcedKind(t wal.RecordType) bool {
	return t == recCreation || t == recReplySent || t == recDisciplineChange
}

// dumpTrace appends a record's causal identity when it carries one —
// the same TraceID phoenix-trace keys timelines on, so grepping a
// logdump for a trace hex lands on the records that trace produced.
func dumpTrace(w io.Writer, tr trace.Ref) {
	if !tr.IsZero() {
		fmt.Fprintf(w, " trace=%016x/%d", tr.Trace, tr.Span)
	}
}

func dumpPayload(w io.Writer, rec wal.Record) error {
	switch rec.Type {
	case recCreation:
		var v creationRec
		if err := decodeRec(rec.Payload, &v); err != nil {
			return err
		}
		fmt.Fprintf(w, "ctx=%d uri=%s comps=%d", v.Ctx, v.URI, len(v.Comps))
		for _, c := range v.Comps {
			fmt.Fprintf(w, " [%d %s %s %s]", c.ID, c.Name, c.Type, c.GoType)
		}
	case recIncoming:
		var v incomingRec
		if err := decodeRec(rec.Payload, &v); err != nil {
			return err
		}
		caller := "external"
		if !v.Call.ID.IsZero() {
			caller = v.Call.ID.String()
		}
		fmt.Fprintf(w, "ctx=%d %s.%s from %s (%s)",
			v.Ctx, v.Call.Target, v.Call.Method, caller, v.Call.CallerType)
		dumpTrace(w, v.Trace)
	case recReplySent:
		var v replySentRec
		if err := decodeRec(rec.Payload, &v); err != nil {
			return err
		}
		fmt.Fprintf(w, "ctx=%d call=%v (short record: sent marker only)", v.Ctx, v.CallID)
		dumpTrace(w, v.Trace)
	case recReplyContent:
		var v replyContentRec
		if err := decodeRec(rec.Payload, &v); err != nil {
			return err
		}
		fmt.Fprintf(w, "ctx=%d call=%v results=%dB appErr=%q",
			v.Ctx, v.CallID, len(v.Reply.Results), v.Reply.AppErr)
		dumpTrace(w, v.Trace)
	case recOutgoing:
		var v outgoingRec
		if err := decodeRec(rec.Payload, &v); err != nil {
			return err
		}
		fmt.Fprintf(w, "ctx=%d -> %s.%s seq=%d", v.Ctx, v.Call.Target, v.Call.Method, v.Call.ID.Seq)
		dumpTrace(w, v.Trace)
	case recOutgoingReply:
		var v outgoingReplyRec
		if err := decodeRec(rec.Payload, &v); err != nil {
			return err
		}
		fmt.Fprintf(w, "ctx=%d seq=%d results=%dB appErr=%q",
			v.Ctx, v.Seq, len(v.Reply.Results), v.Reply.AppErr)
		dumpTrace(w, v.Trace)
	case recCtxState:
		var v ctxStateRec
		if err := decodeRec(rec.Payload, &v); err != nil {
			return err
		}
		fmt.Fprintf(w, "ctx=%d uri=%s comps=%d lastOutSeq=%d lastCalls=%d",
			v.Ctx, v.URI, len(v.Comps), v.LastOutSeq, len(v.LastCalls))
		for _, c := range v.Comps {
			st, err := serial.DecodeState(c.State)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " [%s: %d fields]", c.Name, len(st.Fields))
		}
	case recBeginCkpt:
		fmt.Fprint(w, "begin process checkpoint")
	case recCkptCtxTable:
		var v ckptCtxTableRec
		if err := decodeRec(rec.Payload, &v); err != nil {
			return err
		}
		fmt.Fprintf(w, "context table: %d entries", len(v.Entries))
		for _, e := range v.Entries {
			fmt.Fprintf(w, " [ctx=%d restart=%v head=%v]", e.Ctx, e.RestartLSN, e.ChainHead)
		}
	case recCkptLastCall:
		var v ckptLastCallRec
		if err := decodeRec(rec.Payload, &v); err != nil {
			return err
		}
		fmt.Fprintf(w, "last call table: %d entries", len(v.Entries))
	case recEndCkpt:
		var v endCkptRec
		if err := decodeRec(rec.Payload, &v); err != nil {
			return err
		}
		fmt.Fprintf(w, "end process checkpoint (begin=%v)", v.BeginLSN)
	case recDisciplineChange:
		var v disciplineChangeRec
		if err := decodeRec(rec.Payload, &v); err != nil {
			return err
		}
		kind := "promote"
		if v.From == v.To {
			kind = "reemit"
		} else if v.To == DiscBaseline {
			kind = "demote"
		}
		fmt.Fprintf(w, "ctx=%d %s %s: %s -> %s epoch=%d", v.Ctx, kind, v.Method, v.From, v.To, v.Epoch)
		if v.MultiCall {
			fmt.Fprint(w, " multicall")
		}
		if v.Barred {
			fmt.Fprint(w, " ro-barred")
		}
	default:
		fmt.Fprintf(w, "unknown record type %d", rec.Type)
	}
	return nil
}
