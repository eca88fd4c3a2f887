package core

import (
	"sync"
)

// InjectionPoint names an interception step at which a failure can be
// injected. The points bracket the message events of Figure 1, so the
// three failure situations of Figure 2 (before message 3 is sent;
// after message 3 but before message 2; after message 2) are all
// drivable.
type InjectionPoint string

const (
	// PointServerBeforeLogIncoming fires when message 1 has arrived
	// but before it is logged: the call is lost with the process
	// (Figure 2, failure point 1 at its earliest).
	PointServerBeforeLogIncoming InjectionPoint = "server.before-log-incoming"
	// PointServerAfterLogIncoming fires once message 1 is logged
	// (forced or not per discipline) but before execution.
	PointServerAfterLogIncoming InjectionPoint = "server.after-log-incoming"
	// PointServerAfterExecute fires after the method body ran but
	// before any message-2 logging (Figure 2, failure point 2).
	PointServerAfterExecute InjectionPoint = "server.after-execute"
	// PointServerBeforeSendReply fires after message-2 logging/forcing
	// but before the reply leaves the process (still failure point 2:
	// message 2 unsent).
	PointServerBeforeSendReply InjectionPoint = "server.before-send-reply"
	// PointClientBeforeForceSend fires on the client just before the
	// pre-send log force of message 3.
	PointClientBeforeForceSend InjectionPoint = "client.before-force-send"
	// PointClientAfterForceSend fires after the pre-send force, before
	// the call goes out (Figure 2, failure point 1 at its latest).
	PointClientAfterForceSend InjectionPoint = "client.after-force-send"
	// PointClientBeforeForceReply fires after message 4 arrived,
	// before the baseline's reply force.
	PointClientBeforeForceReply InjectionPoint = "client.before-force-reply"
	// PointClientAfterReply fires after message-4 processing completes
	// (Figure 2, failure point 3 from the server's perspective —
	// the client has the reply, the server moved on).
	PointClientAfterReply InjectionPoint = "client.after-reply"
)

// Injector crashes a process when execution reaches a chosen point for
// the n-th time. One injector drives one process (bind is called by
// newProcess).
type Injector struct {
	mu     sync.Mutex
	armed  map[InjectionPoint]int // point -> remaining passes before firing
	fired  map[InjectionPoint]int
	target *Process
}

// NewInjector returns an empty injector; arm points with CrashAt.
func NewInjector() *Injector {
	return &Injector{
		armed: make(map[InjectionPoint]int),
		fired: make(map[InjectionPoint]int),
	}
}

// CrashAt arms the injector: the nth time execution passes point
// (1-based), the process crashes there.
func (in *Injector) CrashAt(point InjectionPoint, nth int) *Injector {
	if nth < 1 {
		nth = 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.armed[point] = nth
	return in
}

// Disarm removes a pending injection.
func (in *Injector) Disarm(point InjectionPoint) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.armed, point)
}

// Fired reports how many times a point has triggered a crash.
func (in *Injector) Fired(point InjectionPoint) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[point]
}

func (in *Injector) bind(p *Process) {
	in.mu.Lock()
	in.target = p
	in.mu.Unlock()
}

// hit is called by the runtime at each point; it crashes the bound
// process and unwinds the calling goroutine when the armed count is
// reached.
func (in *Injector) hit(p *Process, point InjectionPoint) {
	in.mu.Lock()
	n, ok := in.armed[point]
	if !ok || in.target != p {
		in.mu.Unlock()
		return
	}
	n--
	if n > 0 {
		in.armed[point] = n
		in.mu.Unlock()
		return
	}
	delete(in.armed, point)
	in.fired[point]++
	in.mu.Unlock()

	p.Crash()
	panic(crashSignal{proc: p.name})
}

// inject is the runtime's hook; a nil injector is free.
func (p *Process) inject(point InjectionPoint) {
	if p.cfg.Injector != nil {
		p.cfg.Injector.hit(p, point)
	}
	// A concurrent Crash must also stop in-flight work at the next
	// interception step, approximating fail-stop.
	p.checkAlive()
}
