package core

import (
	"fmt"
	"slices"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs/trace"
	"repro/internal/wal"
)

// This file is the way back of Section 4.4, once: "the state record (or
// creation record) can be read from the log and the context restored...
// Then the log after the state record is read and incoming method calls
// for the context are replayed". A context's message records are a
// chain on the log: each one's frame links back to the one before
// (wal.Log.AppendLinked), so its backlog is read off the log from its
// newest record, which Pass 1 found (walkChain), decoded as it is read,
// and replayed oldest first (replayChain). Every way a context comes
// back — the eager drain, a lazy first touch, the background worker, a
// nested demand, RecoverContext, a Handle — is bringBack.

// bringBack builds a shell's components from its restart record, walks
// its chain off the log through rd and replays it — the last call may
// run off the end of the log and resume live execution, calling perhaps
// into other contexts of this process, which the serve path's demand
// brings back in turn. The caller has claimed cx and opens its latch
// once its own bookkeeping is done. It returns the records the walk read.
func (p *Process) bringBack(cx *Context, rd *wal.Reader) (int, error) {
	restart := cx.restart()
	if err := p.build(cx, restart, rd); err != nil {
		return 0, err
	}
	chain, err := walkChain(rd, cx.parent.id, ids.LSN(cx.chainHead.Load()), restart)
	if err != nil {
		return 0, err
	}
	p.replayChain(cx, chain)
	return len(chain), nil
}

// chainRec is one record of a context's chain as the walk decoded it:
// an incoming call, or the reply to one of its outgoing calls.
type chainRec struct {
	lsn   ids.LSN
	call  *incomingRec
	reply *outgoingReplyRec
}

// walkChain reads the chain of context ctx off the log through rd:
// from head, its newest replay-relevant message record — an incoming
// call, or the reply to an outgoing one — link by link down to its
// restart LSN ("If a message log record occurs earlier than the latest
// state record of the same context, it is ignored"), decoding each
// record once (decodeRec copies what it keeps, so nothing aliases rd's
// block), and returns them in replay order, oldest first. A link (from
// the nil LSN: the head itself) that leads to no record, or to one that
// is not the context's message, is a broken log.
func walkChain(rd *wal.Reader, ctx ids.CompID, head, restart ids.LSN) ([]chainRec, error) {
	var chain []chainRec
	var calls []incomingRec // a slab: one allocation per 32 decoded calls
	for from, lsn := ids.NilLSN, head; !lsn.IsNil() && lsn >= restart; {
		rec, err := rd.ReadAt(lsn)
		if err != nil {
			return nil, fmt.Errorf("core: chain of context %d: record at %v, linked from %v: %w", ctx, lsn, from, err)
		}
		r := chainRec{lsn: lsn}
		var owner ids.CompID
		switch rec.Type {
		case recIncoming:
			if len(calls) == 0 {
				calls = make([]incomingRec, 32)
			}
			r.call, calls = &calls[0], calls[1:]
			err = decodeRec(rec, r.call)
			owner = r.call.Ctx
		case recOutgoingReply:
			r.reply = new(outgoingReplyRec)
			err = decodeRec(rec, r.reply)
			owner = r.reply.Ctx
		default:
			owner, err = recCtx(rec.Payload)
		}
		if err != nil {
			return nil, fmt.Errorf("core: chain of context %d: record at %v: %w", ctx, lsn, err)
		}
		if (r.call == nil && r.reply == nil) || owner != ctx {
			return nil, fmt.Errorf("core: chain of context %d: %v, linked from %v, holds a %s record of context %d",
				ctx, lsn, from, recName(rec.Type), owner)
		}
		chain = append(chain, r)
		from, lsn = lsn, rec.Prev
	}
	slices.Reverse(chain)
	return chain, nil
}

// replayChain feeds cx's walked chain to the Section-4.4 state machine:
// replies are buffered under the pending incoming call, and the pending
// call is replayed when the next incoming call shows that all its
// messages are in hand. By the log-prefix argument those replays never
// leave the context: a later incoming record survived the crash, so
// every reply to the earlier call's sends did too. The last call is the
// one whose replay may find a reply missing — the log ends inside it —
// and resume live.
func (p *Process) replayChain(cx *Context, chain []chainRec) {
	var pending *chainRec // the incoming call whose replies are being buffered
	replies := make(map[uint64]*msg.Reply)
	for i, r := range chain {
		if r.reply != nil {
			replies[r.reply.Reply.ID.Seq] = &r.reply.Reply
			continue
		}
		if pending != nil {
			p.replayIncoming(cx, pending.call, pending.lsn, replies)
			clear(replies)
		}
		pending = &chain[i]
	}
	if pending != nil {
		p.replayIncoming(cx, pending.call, pending.lsn, replies)
	}
}

// replayIncoming re-executes one logged incoming call. Outgoing calls
// are answered from replies when present; a missing reply means the
// log ends inside this call, and execution continues live with the
// same deterministically re-derived call IDs, so servers answer
// repeats from their last call tables. The reply is not sent to the
// caller (condition 5): a persistent caller's results are encoded into
// the last call table, where a duplicate call will find them.
//
// A replay does what the live call did. A record that does not bind
// (logged before the serve path bound first) faulted live unrun, so it
// is skipped; results that do not encode faulted after the call ran,
// so it runs and no last-call entry is made.
//
// A traced record replays under its ORIGINAL trace: the StageReplay
// span carries the trace read back from the log plus the record's LSN,
// which is what lets phoenix-trace stitch the pre-crash and post-crash
// halves of a timeline together; curTrace is restored too, so records
// re-logged by a resumed execution stay on that timeline.
func (p *Process) replayIncoming(cx *Context, ir *incomingRec, lsn ids.LSN, replies map[uint64]*msg.Reply) {
	call := &ir.Call
	bound, err := cx.parent.disp.Bind(call.Method, call.Args, call.NumArgs)
	if err != nil {
		return
	}
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
	replayStart := p.tr.Now()
	out, appErr := bound.Call()
	if p.tr != nil && !ir.Trace.IsZero() {
		p.tr.Record(trace.SpanData{
			Ref:    trace.Ref{Trace: ir.Trace.Trace, Span: p.tr.NewSpan()},
			Parent: ir.Trace.Span,
			Stage:  trace.StageReplay,
			Start:  replayStart,
			End:    p.tr.Now(),
			LSN:    uint64(lsn),
			Proc:   p.name,
			Method: call.Method,
		})
	}
	if call.ID.IsZero() {
		return
	}
	if results, numResults, err := bound.EncodeResults(out); err == nil {
		reply := msg.Reply{ID: call.ID, Results: results, NumResults: numResults, AppErr: appErr}
		p.lastCalls.put(call.ID.Caller, call.ID.Seq, reply, cx.parent.id)
	}
}
