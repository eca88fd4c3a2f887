package core

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs/trace"
	"repro/internal/wal"
)

// Log record types written by the runtime. Message records carry the
// context they belong to (the parent component ID identifies a context
// in log records, Section 4.2), so recovery can group them per context.
const (
	// recCreation records a context's creation: its components and
	// their post-construction field states. Replaying from it is the
	// baseline recovery path ("from creation", Table 7).
	recCreation wal.RecordType = 1 + iota
	// recIncoming is message 1 (a "long record"): the call that will
	// be re-invoked during replay.
	recIncoming
	// recReplySent is message 2 as a "short record" — the header alone,
	// no content (Algorithm 3: the reply can be regenerated by replay;
	// we only need the fact that it was sent).
	recReplySent
	// recReplyContent is a reply's content: baseline message 2, or a
	// last-call-table reply saved ahead of a context state record
	// (Section 4.2).
	recReplyContent
	// recOutgoing is message 3; only the baseline writes it
	// (the optimized system recreates send messages by replay).
	recOutgoing
	// recOutgoingReply is message 4's content: the server reply consumed
	// during replay to suppress the outgoing call.
	recOutgoingReply
	// recCtxState is a context state record (Section 4.2).
	recCtxState
	// recBeginCkpt opens a process checkpoint (Section 4.3).
	recBeginCkpt
	// recCkptCtxTable is the context-table dump inside a checkpoint.
	recCkptCtxTable
	// recCkptLastCall is the last-call-table dump inside a checkpoint.
	recCkptLastCall
	// recEndCkpt closes a process checkpoint.
	recEndCkpt
	// Kind 12 was the discipline-change record; it is never reused.
)

// compRecord describes one component of a context inside a creation or
// state record: identity, Go type (for re-instantiation through the
// type registry), Phoenix component type, read-only method set, and
// captured field state.
type compRecord struct {
	ID        ids.CompID
	Name      string
	GoType    string
	Type      msg.ComponentType
	ROMethods []string
	State     []byte // encoded serial.State
}

// A record is the payload struct of one record kind. head names what
// the record header says of it: the frame type it is written under, the
// context that owns it (0: a process-wide checkpoint record) and its
// causal trace (zero when untraced, and on every cold kind).
// AppendPayload writes that header, then the body.
type record interface {
	wal.PayloadEncoder
	head() (wal.RecordType, ids.CompID, trace.Ref)
}

// creationRec is the payload of recCreation. ctx, the parent component
// ID that identifies the context, comes from the record header; the
// plan lays out exported fields only, so the body does not repeat it.
type creationRec struct {
	ctx   ids.CompID
	URI   ids.URI
	Comps []compRecord // index 0 is the parent
}

// incomingRec is the payload of recIncoming; of Call it keeps what
// replay reads (appendCallBody), and the rest decodes zero.
type incomingRec struct {
	Ctx   ids.CompID
	Call  msg.Call
	Trace trace.Ref // causal trace of the call; zero when untraced
}

// replySentRec is the payload of recReplySent: the header alone.
type replySentRec struct {
	Ctx   ids.CompID
	Trace trace.Ref
}

// replyContentRec is the payload of recReplyContent. Reply.ID is the
// incoming call it answers.
type replyContentRec struct {
	Ctx   ids.CompID
	Reply msg.Reply
	Trace trace.Ref
}

// outgoingRec is the payload of recOutgoing (baseline only): one call
// layout serves both call records.
type outgoingRec incomingRec

// outgoingReplyRec is the payload of recOutgoingReply. Reply.ID.Seq is
// the context's outgoing sequence number of the call it answers
// (Universe.send refuses a reply to any other call).
type outgoingReplyRec struct {
	Ctx   ids.CompID
	Reply msg.Reply
	Trace trace.Ref
}

// lastCallSaved is a last-call-table entry as persisted in context
// state records and checkpoint dumps: LSNs only, reply bodies are read
// from the log when a duplicate call actually needs them (Section 4.4).
type lastCallSaved struct {
	Caller   ids.ComponentAddr
	Seq      uint64
	ReplyLSN ids.LSN
	Ctx      ids.CompID // context whose component served the call
}

// ctxStateRec is the payload of recCtxState: the field states of the
// parent and subordinates, context metadata, and the LSNs of the
// last-call replies associated with the context. ctx comes from the
// header, as in creationRec.
type ctxStateRec struct {
	ctx        ids.CompID
	URI        ids.URI
	Comps      []compRecord
	LastOutSeq uint64
	SubCounter uint32
	LastCalls  []lastCallSaved
}

// beginCkptRec is the payload of recBeginCkpt: the header alone.
type beginCkptRec struct{}

// ckptCtxEntry is one context-table row inside a process checkpoint:
// the restart LSN of the context (its latest state record, or creation
// record if none), akin to ARIES page recovery LSNs, and the head of
// its chain — its newest incoming or outgoing-reply record — which
// recovery needs when the context logged nothing after the checkpoint.
type ckptCtxEntry struct {
	Ctx        ids.CompID
	RestartLSN ids.LSN
	ChainHead  ids.LSN
}

// ckptCtxTableRec is the payload of recCkptCtxTable.
type ckptCtxTableRec struct {
	Entries []ckptCtxEntry
}

// ckptLastCallRec is the payload of recCkptLastCall.
type ckptLastCallRec struct {
	Entries []lastCallSaved
}

// endCkptRec is the payload of recEndCkpt.
type endCkptRec struct {
	BeginLSN ids.LSN
}

// recFor returns a zero record struct of kind t, or nil for a kind this
// runtime does not write.
func recFor(t wal.RecordType) record {
	switch t {
	case recCreation:
		return new(creationRec)
	case recIncoming:
		return new(incomingRec)
	case recReplySent:
		return new(replySentRec)
	case recReplyContent:
		return new(replyContentRec)
	case recOutgoing:
		return new(outgoingRec)
	case recOutgoingReply:
		return new(outgoingReplyRec)
	case recCtxState:
		return new(ctxStateRec)
	case recBeginCkpt:
		return new(beginCkptRec)
	case recCkptCtxTable:
		return new(ckptCtxTableRec)
	case recCkptLastCall:
		return new(ckptLastCallRec)
	case recEndCkpt:
		return new(endCkptRec)
	}
	return nil
}

// recName names record types in errors and traces.
func recName(t wal.RecordType) string {
	switch t {
	case recCreation:
		return "creation"
	case recIncoming:
		return "incoming"
	case recReplySent:
		return "reply-sent"
	case recReplyContent:
		return "reply-content"
	case recOutgoing:
		return "outgoing"
	case recOutgoingReply:
		return "outgoing-reply"
	case recCtxState:
		return "ctx-state"
	case recBeginCkpt:
		return "begin-ckpt"
	case recCkptCtxTable:
		return "ckpt-ctx-table"
	case recCkptLastCall:
		return "ckpt-last-call"
	case recEndCkpt:
		return "end-ckpt"
	default:
		return fmt.Sprintf("record(%d)", t)
	}
}
