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
// state record then carries those entries with their LSNs. A reply
// logged below the published mark is written again, so that no entry
// holds the trim floor under the mark for a caller that has gone
// quiet. Neither the reply records nor the state record is forced —
// "we can replay all the method calls from the creation record or the
// last forced states" — a later send's force makes them stable.
func (cx *Context) saveStateLocked() error {
	p := cx.p
	mark := p.log.Mark()

	// "Next time we save the context state, if an LSN is not empty, we
	// know the reply message is in the log and needn't save it again."
	entries := p.lastCalls.forContext(cx.parent.id)
	saved := make([]lastCallSaved, 0, len(entries))
	for _, e := range entries {
		lsn := e.replyLSN
		if (lsn.IsNil() || lsn < mark) && p.replyFromEntry(e) {
			var err error
			if lsn, err = p.appendRec(&replyContentRec{Ctx: cx.parent.id, Reply: e.reply}, nil); err != nil {
				return err
			}
			p.lastCalls.fillLSN(e.caller, e.seq, lsn)
		}
		saved = append(saved, lastCallSaved{
			Caller: e.caller, Seq: e.seq, ReplyLSN: lsn, Ctx: e.ctx,
		})
	}

	comps, err := cx.captureComponents()
	if err != nil {
		return err
	}
	lsn, err := p.appendRec(&ctxStateRec{
		ctx:        cx.parent.id,
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
	// context state record during recovery."
	cx.restartLSN.Store(uint64(lsn))
	cx.lastLSN = lsn
	cx.callsSinceSave = 0
	p.obs.StateSaves.Inc()
	return nil
}

// reanchor saves cx's state if it is idle: back, free, and with its
// restart record, its chain and its newest record all below mark.
// Otherwise its restart record would hold the trim floor under the
// mark for as long as it stays idle. It never waits: a checkpoint may
// run inside a serving call, whose own context is busy by definition.
func (cx *Context) reanchor(mark ids.LSN) error {
	if cx.restart() >= mark || ids.LSN(cx.chainHead.Load()) >= mark { // also when mark is nil
		return nil
	}
	select {
	case <-cx.ready:
	default:
		return nil // still being brought back
	}
	if cx.parent.disp == nil || !cx.mu.TryLock() { // not restored, or busy
		return nil
	}
	defer cx.mu.Unlock()
	if cx.lastLSN >= mark { // it logged since the first check
		return nil
	}
	return cx.saveStateLocked()
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
// call table, and end-checkpoint, forces them and publishes the
// checkpoint. The paper brackets the dumps with
// begin/end records precisely so the tables can be saved incrementally
// under sub-range locks while execution continues; we snapshot each
// table under its own short-lived lock, achieving the same
// concurrency, and readers "examine all the log records between the
// begin checkpoint and end checkpoint record".
func (p *Process) runCheckpoint() error {
	mark := p.log.Mark()
	begin, err := p.appendRec(&beginCkptRec{}, nil)
	if err != nil {
		return err
	}
	// A quiescent context may save its state at any time (Section
	// 4.2): every idle one does so now, above the mark this checkpoint
	// replaces, so the trim after its publication is held by busy
	// contexts alone. Nothing is idle before a first publication.
	p.mu.Lock()
	all := make([]*Context, 0, len(p.contexts))
	for _, cx := range p.contexts {
		all = append(all, cx)
	}
	p.mu.Unlock()
	for _, cx := range all {
		if err := cx.reanchor(mark); err != nil {
			return err
		}
	}

	p.mu.Lock()
	entries := make([]ckptCtxEntry, 0, len(p.contexts))
	for id, cx := range p.contexts {
		// Read after the begin record: no older than the newest chain
		// record recovery's scan will not pass.
		entries = append(entries, ckptCtxEntry{Ctx: id, RestartLSN: cx.restart(), ChainHead: ids.LSN(cx.chainHead.Load())})
	}
	p.mu.Unlock()
	if _, err := p.appendRec(&ckptCtxTableRec{Entries: entries}, nil); err != nil {
		return err
	}

	calls := p.lastCalls.snapshot()
	if _, err := p.appendRec(&ckptLastCallRec{Entries: calls}, nil); err != nil {
		return err
	}

	end, err := p.appendRec(&endCkptRec{BeginLSN: begin}, nil)
	if err != nil {
		return err
	}

	p.obs.Checkpoints.Inc()
	// "Once a process checkpoint has been flushed to the log, the log
	// manager writes and forces the LSN of the begin checkpoint record
	// into a well-known file" (Section 4.3) — here the log's root. The
	// checkpoint flushes itself rather than wait for a later send, so a
	// process that never forces still publishes. Publication makes the
	// prefix garbage, so it trims — only once its root is written, and
	// never past what a restart from that root reads (reclaimPoint). A
	// failed root write or trim is ckpt.publish_errors, not the
	// checkpoint's error: the root holds hints only, and a serving call
	// that took the checkpoint has already executed. The next
	// checkpoint publishes and trims; Publish never moves the mark
	// backwards, which orders concurrent checkpoints.
	if err := p.forceTo(nil, end); err != nil {
		return err
	}
	trimmed := p.log.Stats().TrimmedBytes
	if err := p.log.Publish(begin); err != nil {
		p.obs.PublishErrors.Inc()
	} else if err := p.log.TrimHead(reclaimPoint(begin, entries, calls)); err != nil {
		p.obs.PublishErrors.Inc()
	} else if p.log.Stats().TrimmedBytes > trimmed {
		p.obs.Trims.Inc()
	}
	return nil
}
