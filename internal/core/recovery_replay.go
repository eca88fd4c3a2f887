package core

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs/trace"
	"repro/internal/wal"
)

// This file is Pass 2 of Section 4.4, once: "buffer a context's
// message records, replay its previous incoming call when the next one
// arrives". One index scan finds which records belong to which context
// (buildChains); replaying a context then walks only its own chain
// (replayContext). Every way a context gets replayed — the eager
// drain, a lazy first touch, a background worker, RecoverContext —
// goes through these two functions.
//
// Chain invariant: a context's entries are in replay order. Streams
// are scanned in era order, a context's records occupy exactly one
// stream per era, and a scan visits a stream in LSN order — so
// appending in scan order is era order, then LSN order, which is the
// order the records were written in.

// buildChains is the index scan: it reads each stream once from its
// Pass-2 start and files every replay-relevant message record — an
// incoming call, or the reply to an outgoing one — under the context
// it belongs to, without decoding the message. Records of contexts
// absent from restart (stateless or dropped) and records older than
// their context's restart LSN are left out ("If a message log record
// occurs earlier than the latest state record of the same context, it
// is ignored"). A chain is the LSNs of a context's backlog, 8 bytes per
// record — all a positioned read needs. Returns the chains and the
// number of records read.
func (p *Process) buildChains(restart map[ids.CompID]ids.LSN) (map[ids.CompID][]ids.LSN, int64, error) {
	chains := make(map[ids.CompID][]ids.LSN, len(restart))
	var scanned int64
	index := func(rec wal.Record) error {
		scanned++
		if rec.Type != recIncoming && rec.Type != recOutgoingReply {
			// Reply-sent/-content and outgoing records say what the
			// context emitted; replay regenerates that. Creation, state
			// and checkpoint records were Pass 1's.
			return nil
		}
		ctx, err := recCtx(rec.Payload)
		if err != nil {
			return err
		}
		if from, ok := restart[ctx]; ok && rec.LSN >= from {
			chains[ctx] = append(chains[ctx], rec.LSN)
		}
		return nil
	}
	starts := p.pass2Starts(restart)
	for _, sh := range p.log.Shards() {
		from, ok := starts[sh.Stream]
		if !ok {
			continue // no restored context has records on this stream
		}
		if err := sh.Log.Scan(from, index); err != nil {
			return nil, scanned, err
		}
	}
	return chains, scanned, nil
}

// ctxTail is a context's last buffered incoming call with the replies
// logged for it. It is the one call whose replay may run off the end
// of the log and resume live execution — calling, perhaps, into other
// contexts of this process — so replayContext hands it back instead of
// running it: the caller decides what to let go of first.
type ctxTail struct {
	call    *incomingRec // nil: the chain held no incoming call
	lsn     ids.LSN
	replies map[uint64]*msg.Reply
}

// replayContext replays cx's backlog from its chain: each entry is read
// through rd — the caller's positioned reader, which it keeps across
// the contexts it replays so neighbouring records share a device read —
// decoded, and fed to the Section-4.4 state machine — replies are
// buffered under the pending incoming call, and the pending call is
// replayed when the next incoming call shows that all its messages are
// in hand. By the log-prefix argument those replays never leave the
// context: a later incoming record survived the crash, so every reply
// to the earlier call's sends did too. Returns the tail.
func (p *Process) replayContext(cx *Context, chain []ids.LSN, rd *wal.Reader) (ctxTail, error) {
	tail := ctxTail{replies: make(map[uint64]*msg.Reply)}
	for _, lsn := range chain {
		rec, err := rd.ReadAt(lsn)
		if err != nil {
			return tail, err
		}
		if rec.Type == recIncoming {
			ir := new(incomingRec)
			if err := decodeRec(rec.Payload, ir); err != nil {
				return tail, err
			}
			if tail.call != nil {
				if err := p.replayIncoming(cx, tail.call, tail.lsn, tail.replies); err != nil {
					return tail, err
				}
				clear(tail.replies)
			}
			tail.call, tail.lsn = ir, lsn
		} else {
			var or outgoingReplyRec
			if err := decodeRec(rec.Payload, &or); err != nil {
				return tail, err
			}
			tail.replies[or.Seq] = &or.Reply
		}
	}
	return tail, nil
}

// replayTail replays a context's last buffered call, if it has one.
func (p *Process) replayTail(cx *Context, t ctxTail) error {
	if t.call == nil {
		return nil
	}
	return p.replayIncoming(cx, t.call, t.lsn, t.replies)
}

// replayIncoming re-executes one logged incoming call. Outgoing calls
// are answered from replies when present; a missing reply means the
// log ends inside this call, and execution continues live with the
// same deterministically re-derived call IDs, so servers answer
// repeats from their last call tables. The reply is not sent to the
// caller (condition 5) — it lands in the last call table, where a
// duplicate call will find it.
//
// A traced record replays under its ORIGINAL trace: the StageReplay
// span carries the trace read back from the log plus the record's LSN,
// which is what lets phoenix-trace stitch the pre-crash and post-crash
// halves of a timeline together; curTrace is restored too, so records
// re-logged by a resumed execution stay on that timeline.
func (p *Process) replayIncoming(cx *Context, ir *incomingRec, lsn ids.LSN, replies map[uint64]*msg.Reply) error {
	cx.mu.Lock()
	defer cx.mu.Unlock()
	cx.recovering = true
	cx.replayReplies = replies
	cx.curTrace = ir.Trace
	defer func() {
		cx.recovering = false
		cx.replayReplies = nil
		cx.curTrace = trace.Ref{}
	}()

	cx.beginExecution()
	p.replayedCalls.Add(1)
	p.obs.ReplayedCalls.Inc()
	p.emitEvent(Event{Kind: EventReplay, Context: cx.uri, Method: ir.Call.Method, LSN: lsn})
	call := &ir.Call
	replayStart := p.tr.Now()
	results, numResults, appErr, err := cx.parent.disp.InvokeEncoded(call.Method, call.Args, call.NumArgs)
	if p.tr != nil && !ir.Trace.IsZero() {
		p.tr.Record(trace.SpanData{
			Ref:    trace.Ref{Trace: ir.Trace.Trace, Span: p.tr.NewSpan()},
			Parent: ir.Trace.Span,
			Stage:  trace.StageReplay,
			Start:  replayStart,
			End:    p.tr.Now(),
			LSN:    uint64(lsn),
			Proc:   &p.name,
			Method: &call.Method,
		})
	}
	if err != nil {
		return fmt.Errorf("replay %s.%s: %w", cx.uri, call.Method, err)
	}
	if !call.ID.IsZero() {
		reply := &msg.Reply{ID: call.ID, Results: results, NumResults: numResults, AppErr: appErr}
		p.lastCalls.putReplayed(call.ID.Caller, call.ID.Seq, reply, cx.parent.id)
	}
	return nil
}
