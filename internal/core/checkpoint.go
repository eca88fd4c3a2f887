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
		if e.replyLSN.IsNil() && !e.reply.ID.IsZero() {
			rc := replyContentRec{Ctx: cx.parent.id, Reply: e.reply}
			lsn, err := p.appendRec(&rc, nil)
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
	// context state record during recovery." The LSN is guarded by
	// p.mu because process checkpoints snapshot it concurrently.
	p.mu.Lock()
	cx.restartLSN = lsn
	p.mu.Unlock()
	cx.lastLSN = lsn
	cx.callsSinceSave = 0
	p.obs.StateSaves.Inc()
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
// call table, and end-checkpoint, forces them and publishes the
// checkpoint. The paper brackets the dumps with
// begin/end records precisely so the tables can be saved incrementally
// under sub-range locks while execution continues; we snapshot each
// table under its own short-lived lock, achieving the same
// concurrency, and readers "examine all the log records between the
// begin checkpoint and end checkpoint record".
func (p *Process) runCheckpoint() error {
	begin, err := p.appendRec(&beginCkptRec{}, nil)
	if err != nil {
		return err
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
		lsn, err := p.appendRec(rec, nil)
		if err != nil {
			return err
		}
		p.mu.Lock()
		cx.restartLSN = lsn
		p.mu.Unlock()
	}

	p.mu.Lock()
	entries := make([]ckptCtxEntry, 0, len(p.contexts))
	for id, cx := range p.contexts {
		if cx.parent.ctype.Stateless() {
			continue
		}
		// Read after the begin record: no older than the newest chain
		// record recovery's scan will not pass.
		entries = append(entries, ckptCtxEntry{Ctx: id, RestartLSN: cx.restartLSN, ChainHead: ids.LSN(cx.chainHead.Load())})
	}
	p.mu.Unlock()
	if _, err := p.appendRec(&ckptCtxTableRec{Entries: entries}, nil); err != nil {
		return err
	}

	if _, err := p.appendRec(&ckptLastCallRec{Entries: p.lastCalls.snapshot()}, nil); err != nil {
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
	// prefix garbage, so it trims; the floor reads the mark the root
	// names, so a failed root write never trims past it. A failed root
	// write or trim is ckpt.publish_errors, not the checkpoint's error:
	// the root holds hints only, and a serving call that took the
	// checkpoint has already executed. The next checkpoint publishes
	// and trims; Publish never moves the mark backwards, which orders
	// concurrent checkpoints.
	if err := p.forceTo(nil, end); err != nil {
		return err
	}
	trimmed := p.log.Stats().TrimmedBytes
	if err := p.log.Publish(begin); err != nil {
		p.obs.PublishErrors.Inc()
	} else if err := p.log.TrimHead(p.reclaimPoint()); err != nil {
		p.obs.PublishErrors.Inc()
	} else if p.log.Stats().TrimmedBytes > trimmed {
		p.obs.Trims.Inc()
	}
	return nil
}
