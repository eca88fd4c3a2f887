package core

import (
	"fmt"
	"slices"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs/trace"
	"repro/internal/wal"
)

// This file is Pass 2 of Section 4.4, once: "buffer a context's
// message records, replay its previous incoming call when the next one
// arrives". A context's message records are a chain on the log: each
// one's frame links back to the one before (wal.Writer.AppendLinked), so
// its backlog is read off the log from its newest record, which Pass 1
// found (walkChain), and replayed oldest first (replayContext). Every
// way a context gets replayed — the eager drain, a lazy first touch, a
// background worker, RecoverContext — goes through these two functions.
//
// Chain invariant: a link points at an older record, in raw-LSN order —
// stream tags grow with the era and a context's records occupy exactly
// one stream per era, so the smaller of two LSNs was written first (what
// Pass 1's "newest restart record wins" rests on).

// walkChain reads the chain of context ctx off the log through rd:
// from head, its newest replay-relevant message record — an incoming
// call, or the reply to an outgoing one — link by link down to its
// restart LSN ("If a message log record occurs earlier than the latest
// state record of the same context, it is ignored"), and returns the
// LSNs in replay order, oldest first: 8 bytes per record of backlog. A
// link (from the nil LSN: the head itself) that leads to no record, or
// to one that is not the context's message, is a broken log.
func walkChain(rd *wal.Reader, ctx ids.CompID, head, restart ids.LSN) ([]ids.LSN, error) {
	var chain []ids.LSN
	for from, lsn := ids.NilLSN, head; !lsn.IsNil() && lsn >= restart; {
		rec, err := rd.ReadAt(lsn)
		if err != nil {
			return nil, fmt.Errorf("core: chain of context %d: record at %v, linked from %v: %w", ctx, lsn, from, err)
		}
		owner, err := recCtx(rec.Payload)
		if err != nil {
			return nil, err
		}
		if (rec.Type != recIncoming && rec.Type != recOutgoingReply) || owner != ctx {
			return nil, fmt.Errorf("core: chain of context %d: %v, linked from %v, holds a %s record of context %d",
				ctx, lsn, from, recName(rec.Type), owner)
		}
		chain = append(chain, lsn)
		from, lsn = lsn, rec.Prev
	}
	slices.Reverse(chain)
	return chain, nil
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
