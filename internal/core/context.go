package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs/trace"
	"repro/internal/rpc"
	"repro/internal/serial"
)

// Context is the unit of interception: a parent component plus its
// subordinates (paper Figure 6). Method calls into the context are
// serialized — components are single-threaded to keep them piece-wise
// deterministic ("serving one incoming method call at a time",
// Section 2.2) — and calls among the parent and its subordinates cross
// no context boundary, so they are neither intercepted nor logged.
type Context struct {
	p      *Process
	parent *component
	uri    ids.URI

	subs     map[string]*component
	subsByID map[ids.CompID]*component

	// mu serializes incoming call execution (single-threaded context).
	mu sync.Mutex

	// ready is closed when the context may serve incoming calls; a
	// context being replayed keeps arrivals waiting until its recovery
	// finishes ("the context begins to wait for incoming calls",
	// Section 4.4).
	ready chan struct{}

	// arrivals counts calls that reached this context while it awaited
	// lazy replay — the background drain's hotness signal (hottest
	// pending context replays first).
	arrivals atomic.Int64

	// Execution state below is owned by the goroutine holding mu (or
	// by the single recovery goroutine during replay).
	lastOutSeq uint64
	subCounter uint32
	// multiCallSeen tracks the servers invoked during the current
	// method execution for the Section 3.5 multi-call optimization,
	// and doubles as the adaptive controller's distinct-target
	// observation set. The value distinguishes the two users: the
	// elision branch checks and stores true; adaptive observation
	// stores false (presence only), so observing a target never
	// changes what the static elision would have decided.
	multiCallSeen map[ids.URI]bool

	// curMethod is the method name of the incoming call currently
	// executing (set only when the adaptive controller is on): the
	// client side of an outgoing call looks up the *executing*
	// method's promoted treatment. Owned by the goroutine holding mu.
	curMethod string
	// execOut / execRepeats count the current execution's outgoing
	// calls and repeated-target calls for adaptive observation.
	execOut     int
	execRepeats int

	// recovering marks replay mode: outgoing calls are answered from
	// replayReplies when possible instead of being sent.
	recovering    bool
	replayReplies map[uint64]*msg.Reply

	// curTrace is the causal trace of the incoming call currently
	// executing in this context (zero between calls or when untraced).
	// Outgoing calls made during the execution inherit it as their
	// parent; replay restores the original call's trace here so records
	// re-logged during a resumed execution stay on the original
	// timeline. Owned by the goroutine holding mu.
	curTrace trace.Ref

	// restartLSN is the latest context state record (or the creation
	// record if none) — the context's replay starting point and its
	// context-table entry's "LSN of the latest context state record".
	restartLSN  ids.LSN
	creationLSN ids.LSN

	// chainHead is the LSN of the newest replay-relevant record this
	// context appended — an incoming call or the reply to an outgoing
	// one. Each one's frame links back to the one before
	// (wal.Writer.AppendLinked), so recovery reads the backlog off the
	// log, newest first. Checkpoints read it; recovery re-seeds it.
	chainHead atomic.Uint64

	// lastLSN is the newest log record this context appended (any
	// kind). The context's commit points force the log only up to it
	// (ForceTo): a context never waits on other contexts' dirty
	// records. Owned by the goroutine holding cx.mu, like the rest of
	// the execution state (Create sets it before publication).
	lastLSN ids.LSN

	// Scratch for the records written once per message: built here,
	// encoded before appendRec returns, never read again. They belong
	// to whoever owns lastOutSeq — the goroutine holding mu, or the
	// one replaying this context.
	incoming      incomingRec
	replySent     replySentRec
	outgoingReply outgoingReplyRec

	callsSinceSave int
}

// URI returns the context's component URI.
func (cx *Context) URI() ids.URI { return cx.uri }

// markReady opens the context for incoming calls. Idempotent; called
// only from the single recovery goroutine (and at creation).
func (cx *Context) markReady() {
	select {
	case <-cx.ready:
	default:
		close(cx.ready)
	}
}

// addr is the context's component address: the first three parts of
// every method-call ID it generates. Outgoing calls from subordinates
// carry the parent's identity — the call ID sequence is per context.
func (cx *Context) addr() ids.ComponentAddr {
	return ids.ComponentAddr{Machine: cx.p.m.name, Proc: cx.p.procID, Comp: cx.parent.id}
}

// addSubordinate creates a subordinate component in the context. It is
// called either during Create (context unpublished) or from the
// context's executing goroutine during a deterministic method
// execution — dynamic creation replays identically, so it needs no log
// record.
func (cx *Context) addSubordinate(name string, obj any) (*component, error) {
	if _, ok := cx.subs[name]; ok {
		return nil, fmt.Errorf("core: subordinate %q already exists in context %s", name, cx.uri)
	}
	disp, err := rpc.NewDispatcher(obj)
	if err != nil {
		return nil, err
	}
	RegisterComponentType(obj)
	cx.subCounter++
	// Subordinate IDs live in a per-context namespace so that dynamic
	// creation during replay reproduces them deterministically.
	id := ids.CompID(uint32(cx.parent.id)<<16 | uint32(cx.subCounter))
	c := &component{
		id:        id,
		name:      name,
		obj:       obj,
		disp:      disp,
		ctype:     msg.Subordinate,
		roMethods: map[string]bool{},
		ctx:       cx,
	}
	cx.subs[name] = c
	cx.subsByID[id] = c
	bindRefs(cx, obj)
	cx.p.mu.Lock()
	cx.p.components[id] = c
	cx.p.mu.Unlock()
	if aware, ok := obj.(ContextAware); ok {
		aware.AttachContext(&Ctx{cx: cx})
	}
	return c, nil
}

// creationRecord captures the context's components and their initial
// states for the creation log record.
func (cx *Context) creationRecord() (*creationRec, error) {
	comps, err := cx.captureComponents()
	if err != nil {
		return nil, err
	}
	return &creationRec{Ctx: cx.parent.id, URI: cx.uri, Comps: comps}, nil
}

func (cx *Context) captureComponents() ([]compRecord, error) {
	capture := func(c *component) (compRecord, error) {
		st, err := serial.Capture(c.obj)
		if err != nil {
			return compRecord{}, fmt.Errorf("core: capture %s: %w", c.name, err)
		}
		data, err := st.Encode()
		if err != nil {
			return compRecord{}, err
		}
		ro := make([]string, 0, len(c.roMethods))
		for m := range c.roMethods {
			ro = append(ro, m)
		}
		return compRecord{
			ID: c.id, Name: c.name, GoType: st.TypeName,
			Type: c.ctype, ROMethods: ro, State: data,
		}, nil
	}
	comps := make([]compRecord, 0, 1+len(cx.subs))
	pc, err := capture(cx.parent)
	if err != nil {
		return nil, err
	}
	comps = append(comps, pc)
	// Deterministic order: by component ID.
	subIDs := make([]ids.CompID, 0, len(cx.subsByID))
	for id := range cx.subsByID {
		subIDs = append(subIDs, id)
	}
	for i := 0; i < len(subIDs); i++ {
		for j := i + 1; j < len(subIDs); j++ {
			if subIDs[j] < subIDs[i] {
				subIDs[i], subIDs[j] = subIDs[j], subIDs[i]
			}
		}
	}
	for _, id := range subIDs {
		sc, err := capture(cx.subsByID[id])
		if err != nil {
			return nil, err
		}
		comps = append(comps, sc)
	}
	return comps, nil
}

// attachAware hands context handles to every component that wants one;
// used after a context is restored from the log.
func (cx *Context) attachAware() {
	if aware, ok := cx.parent.obj.(ContextAware); ok {
		aware.AttachContext(&Ctx{cx: cx})
	}
	for _, s := range cx.subs {
		if aware, ok := s.obj.(ContextAware); ok {
			aware.AttachContext(&Ctx{cx: cx})
		}
	}
}

// beginExecution resets per-execution state; called with mu held just
// before an incoming call is dispatched.
func (cx *Context) beginExecution() {
	if cx.p.cfg.MultiCall || cx.p.adaptive != nil {
		if cx.multiCallSeen == nil {
			cx.multiCallSeen = make(map[ids.URI]bool)
		}
		clear(cx.multiCallSeen)
	}
	if cx.p.adaptive != nil {
		cx.execOut, cx.execRepeats = 0, 0
	}
}

// ContextAware is implemented by components that need their context
// handle (to create subordinates dynamically, obtain refs, or save
// state explicitly). AttachContext is called at creation and again
// after recovery; the handle must be kept in an unexported or
// `phoenix:"-"` field so it is not captured as state.
type ContextAware interface {
	AttachContext(cx *Ctx)
}

// Ctx is the context API handed to ContextAware components.
type Ctx struct {
	cx *Context
}

// URI returns the context's component URI.
func (c *Ctx) URI() ids.URI { return c.cx.uri }

// NewRef returns a proxy for calling the target component from within
// this context: outgoing calls carry the context's identity and are
// logged per the active discipline.
func (c *Ctx) NewRef(target ids.URI) *Ref {
	return &Ref{u: c.cx.p.u, p: c.cx.p, owner: c.cx, target: target}
}

// CreateSubordinate creates a subordinate component dynamically. It
// must be called from inside a method execution of this context (or
// before the context starts serving), and the creation must be
// deterministic — replay re-creates it.
func (c *Ctx) CreateSubordinate(name string, obj any) (*Local, error) {
	comp, err := c.cx.addSubordinate(name, obj)
	if err != nil {
		return nil, err
	}
	return &Local{comp: comp}, nil
}

// Subordinate returns the handle of a subordinate by name.
func (c *Ctx) Subordinate(name string) (*Local, bool) {
	comp, ok := c.cx.subs[name]
	if !ok {
		return nil, false
	}
	return &Local{comp: comp}, true
}

// Subordinates lists subordinate names.
func (c *Ctx) Subordinates() []string {
	names := make([]string, 0, len(c.cx.subs))
	for n := range c.cx.subs {
		names = append(names, n)
	}
	return names
}

// DropSubordinate removes a subordinate (deterministically, from inside
// a method execution).
func (c *Ctx) DropSubordinate(name string) {
	if comp, ok := c.cx.subs[name]; ok {
		delete(c.cx.subs, name)
		delete(c.cx.subsByID, comp.id)
		c.cx.p.mu.Lock()
		delete(c.cx.p.components, comp.id)
		c.cx.p.mu.Unlock()
	}
}

// SaveState writes a context state record now (explicit checkpointing;
// the SaveStateEvery policy calls the same path automatically). It must
// not be called from inside a method execution of this context.
func (c *Ctx) SaveState() error {
	c.cx.mu.Lock()
	defer c.cx.mu.Unlock()
	return c.cx.saveStateLocked()
}

// Local is the handle a parent uses to call a subordinate: a direct,
// unintercepted, unlogged dispatch (Section 3.2.1 and the
// Persistent→Subordinate row of Table 5). It implements
// serial.LocalRef, so components may hold it in fields across
// checkpoints.
type Local struct {
	comp *component
}

// PhoenixLocalID implements serial.LocalRef.
func (l *Local) PhoenixLocalID() ids.CompID { return l.comp.id }

// Name returns the subordinate's name.
func (l *Local) Name() string { return l.comp.name }

// Call invokes a subordinate method directly. The call is not
// intercepted, not logged, and carries no call ID; determinism comes
// from the single-threaded context it runs within. Only a counter
// records that the boundary was crossed (the Persistent→Subordinate
// row of Table 5: interception with no logging work).
func (l *Local) Call(method string, args ...any) ([]any, error) {
	l.comp.ctx.p.obs.InterceptSubordinate.Inc()
	return l.comp.disp.CallValues(method, args...)
}

// Object exposes the subordinate instance (the parent may also use it
// directly; a plain Go call is exactly what subordinate calls are).
func (l *Local) Object() any { return l.comp.obj }

// Handle is an application's handle on a component it created.
type Handle struct {
	cx *Context
}

// URI returns the component's URI, used by other processes to call it.
func (h *Handle) URI() ids.URI { return h.cx.uri }

// Ctx returns the context API for the component.
func (h *Handle) Ctx() *Ctx { return &Ctx{cx: h.cx} }

// Object returns the hosted component instance. Reading it from
// outside the runtime is safe only when no calls are in flight.
func (h *Handle) Object() any { return h.cx.parent.obj }

// SaveState writes a context state record (Section 4.2).
func (h *Handle) SaveState() error { return h.Ctx().SaveState() }

// RestartLSN exposes the context's current restart point (tests and
// the experiment harness examine recovery behaviour with it).
func (h *Handle) RestartLSN() ids.LSN {
	h.cx.p.mu.Lock()
	defer h.cx.p.mu.Unlock()
	return h.cx.restartLSN
}
