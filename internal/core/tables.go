package core

import (
	"fmt"
	"reflect"
	"sync"

	"repro/internal/ids"
	"repro/internal/msg"
)

// lastCallEntry is one row of the process-wide last call table
// (Table 1): the last incoming method call from a given persistent
// client, with its reply held in memory and/or by log LSN. Duplicate
// calls (condition 3) are answered from it without re-execution.
type lastCallEntry struct {
	caller ids.ComponentAddr
	seq    uint64
	// reply is the in-memory reply body; nil after recovery until a
	// duplicate actually needs it ("actual reply messages are only
	// read when they are required to reply to a duplicate call").
	reply *msg.Reply
	// replyLSN is the recReplyContent record holding the reply, or nil
	// if the reply has not been written to the log.
	replyLSN ids.LSN
	// ctx is the context whose component served the call; context
	// state saving writes out the entries of its own context
	// (Section 4.1: "the last call table also keeps the list of last
	// call entries associated with every context").
	ctx ids.CompID
}

// lastCallTable is shared among all the contexts in a process "so that
// the entry for a client is updated even if the client calls two
// different components in the same process" (Section 4.1).
type lastCallTable struct {
	mu      sync.Mutex
	entries map[ids.ComponentAddr]*lastCallEntry
}

func newLastCallTable() *lastCallTable {
	return &lastCallTable{entries: make(map[ids.ComponentAddr]*lastCallEntry)}
}

func (t *lastCallTable) get(caller ids.ComponentAddr) *lastCallEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.entries[caller]
}

// put records the latest call from caller. An earlier entry for the
// same caller is discarded: "If we receive a method call from a
// persistent client, the client can independently recover its state to
// the send message time... So its earlier last call entry is no longer
// needed."
func (t *lastCallTable) put(caller ids.ComponentAddr, seq uint64, reply *msg.Reply, ctx ids.CompID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries[caller] = &lastCallEntry{caller: caller, seq: seq, reply: reply, ctx: ctx}
}

// putReplayed records a reply regenerated by replay. Unlike put it is
// monotonic: replays of different contexts can interleave out of their
// original cross-context order, and an older call must never displace
// a caller's newer entry.
func (t *lastCallTable) putReplayed(caller ids.ComponentAddr, seq uint64, reply *msg.Reply, ctx ids.CompID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.entries[caller]; ok && cur.seq > seq {
		return
	}
	t.entries[caller] = &lastCallEntry{caller: caller, seq: seq, reply: reply, ctx: ctx}
}

// seed installs an entry rebuilt during recovery (LSN only) unless a
// newer one is already present — in place: Pass 1 brings a caller's
// sequence numbers through here one after another.
func (t *lastCallTable) seed(e lastCallSaved) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, ok := t.entries[e.Caller]
	switch {
	case !ok:
		t.entries[e.Caller] = &lastCallEntry{caller: e.Caller, seq: e.Seq, replyLSN: e.ReplyLSN, ctx: e.Ctx}
	case cur.seq < e.Seq:
		*cur = lastCallEntry{caller: e.Caller, seq: e.Seq, replyLSN: e.ReplyLSN, ctx: e.Ctx}
	case cur.seq == e.Seq && cur.replyLSN.IsNil():
		cur.replyLSN = e.ReplyLSN
	}
}

// fillLSN records where the entry's reply body lives in the log.
func (t *lastCallTable) fillLSN(caller ids.ComponentAddr, seq uint64, lsn ids.LSN) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[caller]; ok && e.seq == seq {
		e.replyLSN = lsn
	}
}

// forContext snapshots the entries associated with one context, used
// when saving that context's state.
func (t *lastCallTable) forContext(ctx ids.CompID) []*lastCallEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*lastCallEntry
	for _, e := range t.entries {
		if e.ctx == ctx {
			out = append(out, e)
		}
	}
	return out
}

// minReplyLSN returns the smallest log position still referenced by a
// last-call entry's reply record (nil if none) — a bound on how much
// log head may be reclaimed.
func (t *lastCallTable) minReplyLSN() ids.LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	min := ids.NilLSN
	for _, e := range t.entries {
		if !e.replyLSN.IsNil() && (min.IsNil() || e.replyLSN < min) {
			min = e.replyLSN
		}
	}
	return min
}

// snapshot copies every entry (LSN view) for a process checkpoint.
func (t *lastCallTable) snapshot() []lastCallSaved {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]lastCallSaved, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, lastCallSaved{
			Caller: e.caller, Seq: e.seq, ReplyLSN: e.replyLSN, Ctx: e.ctx,
		})
	}
	return out
}

// remoteTypeInfo is what a client process has learned about a remote
// server component (Section 3.4): its component type and which of its
// methods carry the read-only attribute.
type remoteTypeInfo struct {
	ctype     msg.ComponentType
	roMethods map[string]bool
}

// remoteTypeTable is the per-process remote component table: "Initially,
// the types of server components are unknown, and the most conservative
// logging algorithms are used. From reply messages, we gradually learn
// server component types."
type remoteTypeTable struct {
	mu      sync.Mutex
	entries map[ids.URI]*remoteTypeInfo
}

func newRemoteTypeTable() *remoteTypeTable {
	return &remoteTypeTable{entries: make(map[ids.URI]*remoteTypeInfo)}
}

// lookup returns what is known about target. known is false when the
// server has never replied to this process, in which case the caller
// must assume a persistent server.
func (t *remoteTypeTable) lookup(target ids.URI, method string) (ctype msg.ComponentType, roMethod, known bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[target]
	if !ok {
		return msg.Persistent, false, false
	}
	return e.ctype, e.roMethods[method], true
}

// learn records a reply attachment.
func (t *remoteTypeTable) learn(target ids.URI, method string, ctype msg.ComponentType, roMethod bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[target]
	if !ok {
		e = &remoteTypeInfo{roMethods: make(map[string]bool)}
		t.entries[target] = e
	}
	e.ctype = ctype
	if roMethod {
		e.roMethods[method] = true
	}
}

// The component type registry lets recovery re-instantiate component
// objects from the Go type names stored in creation and state records,
// playing the role .NET type reflection plays in the paper. It is
// global, like msg's type registry: every process in the program
// (or every binary, in the real-TCP deployment) registers its
// component types at startup. Create registers types automatically, so
// explicit registration is only needed by binaries that recover
// components they never created.
var typeRegistry sync.Map // GoType string -> reflect.Type (struct type)

// RegisterComponentType records a component's concrete type for
// recovery. sample must be a pointer to the component struct.
func RegisterComponentType(sample any) {
	t := reflect.TypeOf(sample)
	if t == nil || t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("core: RegisterComponentType wants *Struct, got %T", sample))
	}
	typeRegistry.Store(t.Elem().String(), t.Elem())
}

// newComponentInstance builds a fresh zero instance of a registered
// component type.
func newComponentInstance(goType string) (any, error) {
	v, ok := typeRegistry.Load(goType)
	if !ok {
		return nil, fmt.Errorf("core: component type %q is not registered; call RegisterComponentType before recovery", goType)
	}
	return reflect.New(v.(reflect.Type)).Interface(), nil
}
