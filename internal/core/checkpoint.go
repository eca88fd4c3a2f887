package core

import (
	"fmt"

	"repro/internal/ids"
)

// saveStateLocked writes a context state record (Section 4.2). The
// caller holds cx.mu, so the context is quiescent and component state
// is exactly its field values.
//
// Order matters: the replies of the context's last-call entries must
// reach the log first, because after restoring a state record the
// replies of earlier incoming calls cannot be recreated by replay. The
// state record then carries those entries with their LSNs. Neither the
// reply records nor the state record is forced — "we can replay all
// the method calls from the creation record or the last forced states"
// — a later send's force makes them stable.
func (cx *Context) saveStateLocked() error {
	p := cx.p
	if cx.parent.ctype.Stateless() {
		return fmt.Errorf("core: %s is stateless; it has no state to save", cx.uri)
	}

	// Write the reply bodies of this context's last-call entries that
	// are not yet in the log, and remember their LSNs. "Next time we
	// save the context state, if an LSN is not empty, we know the
	// reply message is in the log and needn't save it again."
	entries := p.lastCalls.forContext(cx.parent.id)
	saved := make([]lastCallSaved, 0, len(entries))
	for _, e := range entries {
		if e.replyLSN.IsNil() && e.reply != nil {
			lsn, err := p.appendRec(recReplyContent, cx.parent.id, &replyContentRec{
				Ctx:    cx.parent.id,
				CallID: ids.CallID{Caller: e.caller, Seq: e.seq},
				Reply:  *e.reply,
			}, nil)
			if err != nil {
				return err
			}
			p.lastCalls.fillLSN(e.caller, e.seq, lsn)
			e.replyLSN = lsn
		}
		saved = append(saved, lastCallSaved{
			Caller: e.caller, Seq: e.seq, ReplyLSN: e.replyLSN, Ctx: e.ctx,
		})
	}

	comps, err := cx.captureComponents()
	if err != nil {
		return err
	}
	lsn, err := p.appendRec(recCtxState, cx.parent.id, &ctxStateRec{
		Ctx:        cx.parent.id,
		URI:        cx.uri,
		Comps:      comps,
		LastOutSeq: cx.lastOutSeq,
		SubCounter: cx.subCounter,
		LastCalls:  saved,
	}, nil)
	if err != nil {
		return err
	}
	// "After that, it updates the state record LSN in the context table
	// entry, which is saved as process states and used to retrieve the
	// context state record during recovery." The LSN is guarded by
	// p.mu because process checkpoints snapshot it concurrently.
	p.mu.Lock()
	cx.restartLSN = lsn
	p.mu.Unlock()
	cx.lastLSN = lsn
	cx.callsSinceSave = 0
	p.obs.StateSaves.Inc()
	p.emitEvent(Event{Kind: EventStateSave, Context: cx.uri, LSN: lsn,
		Detail: fmt.Sprintf("state record at %v", lsn)})
	return nil
}

// Checkpoint takes a process checkpoint now (Section 4.3). It is also
// driven automatically by Config.CheckpointEvery.
func (p *Process) Checkpoint() error {
	if p.crashed.Load() {
		return fmt.Errorf("core: process %s has crashed", p.name)
	}
	return p.runCheckpoint()
}

// runCheckpoint logs begin-checkpoint, the context table, the last
// call table, and end-checkpoint. The paper brackets the dumps with
// begin/end records precisely so the tables can be saved incrementally
// under sub-range locks while execution continues; we snapshot each
// table under its own short-lived lock, achieving the same
// concurrency, and readers "examine all the log records between the
// begin checkpoint and end checkpoint record".
func (p *Process) runCheckpoint() error {
	begin, err := p.appendRec(recBeginCkpt, 0, nil, nil)
	if err != nil {
		return err
	}
	// With more than one stream, snapshot every stream's append
	// position now: records past these positions postdate the
	// checkpoint, so the well-known watermark vector may default each
	// stream to its snapshot (recovery rescans everything later).
	// Records before a snapshot belong to contexts whose restart LSNs
	// constrain the vector downward when it is published (see
	// wellKnownMarks). A one-stream log needs none: its mark is begin.
	var ends map[uint32]ids.LSN
	if shards := p.log.Shards(); len(shards) > 1 {
		ends = make(map[uint32]ids.LSN, len(shards))
		for _, sh := range shards {
			ends[sh.Stream] = sh.Log.End()
		}
	}

	// Stateless contexts never write state records, so their original
	// creation record would pin the log head forever. Their fields are
	// immutable by contract, so the checkpoint re-emits an equivalent
	// creation record and advances their restart LSN, letting TrimHead
	// reclaim the prefix.
	p.mu.Lock()
	var stateless []*Context
	for _, cx := range p.contexts {
		if cx.parent.ctype.Stateless() {
			stateless = append(stateless, cx)
		}
	}
	p.mu.Unlock()
	// No context lock is taken here: a functional/read-only
	// component's fields are immutable by contract (configuration set
	// at creation), and locking another context from inside a serving
	// call could cycle through a read-only component's outgoing calls.
	for _, cx := range stateless {
		rec, err := cx.creationRecord()
		if err != nil {
			return err
		}
		lsn, err := p.appendRec(recCreation, cx.parent.id, rec, nil)
		if err != nil {
			return err
		}
		p.mu.Lock()
		cx.restartLSN = lsn
		p.mu.Unlock()
	}

	// Re-emit the adaptive controller's non-default states: records
	// appended after the per-stream end snapshots above are always
	// rescanned by recovery, so a trim that drops a promotion's
	// original change record cannot lose the committed discipline.
	if p.adaptive != nil {
		if err := p.adaptive.reemitChanges(); err != nil {
			return err
		}
	}

	p.mu.Lock()
	entries := make([]ckptCtxEntry, 0, len(p.contexts))
	for id, cx := range p.contexts {
		if cx.parent.ctype.Stateless() {
			continue
		}
		// Read after the begin record (and the ends snapshot): no older
		// than the newest chain record recovery's scan will not pass.
		entries = append(entries, ckptCtxEntry{Ctx: id, RestartLSN: cx.restartLSN, ChainHead: ids.LSN(cx.chainHead.Load())})
	}
	p.mu.Unlock()
	if _, err := p.appendRec(recCkptCtxTable, 0, &ckptCtxTableRec{Entries: entries}, nil); err != nil {
		return err
	}

	if _, err := p.appendRec(recCkptLastCall, 0, &ckptLastCallRec{Entries: p.lastCalls.snapshot()}, nil); err != nil {
		return err
	}

	end, err := p.appendRec(recEndCkpt, 0, &endCkptRec{BeginLSN: begin}, nil)
	if err != nil {
		return err
	}

	// The well-known file is updated only once the checkpoint is
	// stable — the next force whose watermark passes the end record
	// (ours or a later send's) covers it — and, on a sharded log, every
	// stream as far as it reaches now: the tables name records of all
	// of them (restart LSNs, chain heads).
	var tails map[uint32]ids.LSN
	if ends != nil {
		tails = make(map[uint32]ids.LSN, len(ends))
		for _, sh := range p.log.Shards() {
			tails[sh.Stream] = sh.Log.End()
		}
	}
	p.ckptMu.Lock()
	p.pendingCkpt.Store(uint64(begin))
	p.pendingCkptEnd = end
	p.pendingCkptEnds, p.pendingCkptTails = ends, tails
	p.ckptMu.Unlock()
	p.obs.Checkpoints.Inc()
	p.emitEvent(Event{Kind: EventCheckpoint, LSN: begin,
		Detail: fmt.Sprintf("begin at %v, %d contexts", begin, len(entries))})
	return nil
}
