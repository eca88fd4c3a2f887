// Package transport carries marshalled call and reply messages between
// Phoenix/App processes.
//
// Two implementations are provided. Mem is an in-process network with
// injectable round-trip latency; it stands in for the paper's 100 Mb
// Ethernet between the two test machines and lets the experiment
// harness run local and remote configurations deterministically. TCP is
// a real-socket transport (length-prefixed frames over net.Conn) so two
// actual OS processes can host Phoenix components against each other.
//
// A transport endpoint is synchronous request/response, mirroring
// remote method invocation: the client blocks until the reply arrives
// or the endpoint reports failure. Failures (ErrUnavailable) are what
// the runtime's retry logic (condition 4 of Section 2.2) reacts to.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
)

// ErrUnavailable reports that the destination process is not reachable
// (crashed, not yet restarted, or never registered). The Phoenix
// runtime treats it like the .NET exceptions that "indicate a component
// failure" (Section 2.4) and retries the call.
var ErrUnavailable = errors.New("transport: destination unavailable")

// Handler processes one request and produces one response. The request
// buffer must not be retained after return.
type Handler func(req []byte) ([]byte, error)

// Network registers servers and opens client endpoints by address.
type Network interface {
	// Listen routes requests for addr to h until Unlisten. Listening
	// on an address that is already bound replaces the handler (a
	// restarted process takes over its address).
	Listen(addr string, h Handler) error
	// Unlisten stops routing addr (the process "crashed").
	Unlisten(addr string)
	// Send delivers one request to addr and returns the response. The
	// request buffer is not retained. The response bytes may live in a
	// per-connection buffer: they are only valid until the next Send
	// to the same address, so callers that retain them must copy.
	Send(addr string, req []byte) ([]byte, error)
}

// Mem is an in-process Network with configurable latency. The zero
// value is not usable; use NewMem.
type Mem struct {
	clock disk.Clock
	rtt   time.Duration

	mu       sync.RWMutex
	handlers map[string]Handler
	partLock sync.RWMutex
	severed  map[string]bool // addresses partitioned away (fault injection)

	jitter   atomic.Int64 // a time.Duration; rng and jitterMu are touched only when it is positive
	jitterMu sync.Mutex
	rng      *rand.Rand
}

// NewMem builds an in-memory network. rtt is the injected round-trip
// latency (the paper measures ~0.2 ms per remote call); it is split
// between the request and reply directions and charged to clock. A nil
// clock disables latency injection.
func NewMem(clock disk.Clock, rtt time.Duration) *Mem {
	return &Mem{
		clock:    clock,
		rtt:      rtt,
		handlers: make(map[string]Handler),
		severed:  make(map[string]bool),
	}
}

// SetJitter adds up to d of uniform random extra delay to each message
// direction. Real networks and schedulers randomize the phase at which
// log writes hit the platter — the reason the paper's remote runs see
// average rather than full rotational delays (Section 5.2.2); a
// deterministic simulation needs this to avoid rotational lockstep.
func (m *Mem) SetJitter(d time.Duration, seed int64) {
	m.jitterMu.Lock()
	defer m.jitterMu.Unlock()
	m.rng = rand.New(rand.NewSource(seed))
	m.jitter.Store(int64(d))
}

func (m *Mem) jitterDelay() time.Duration {
	j := m.jitter.Load()
	if j <= 0 {
		return 0
	}
	m.jitterMu.Lock()
	defer m.jitterMu.Unlock()
	return time.Duration(m.rng.Int63n(j))
}

// Listen implements Network.
func (m *Mem) Listen(addr string, h Handler) error {
	if h == nil {
		return fmt.Errorf("transport: nil handler for %q", addr)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[addr] = h
	return nil
}

// Unlisten implements Network.
func (m *Mem) Unlisten(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.handlers, addr)
}

// Sever simulates a network partition: requests to addr fail with
// ErrUnavailable until Heal, even though the handler stays registered.
func (m *Mem) Sever(addr string) {
	m.partLock.Lock()
	defer m.partLock.Unlock()
	m.severed[addr] = true
}

// Heal reverses Sever.
func (m *Mem) Heal(addr string) {
	m.partLock.Lock()
	defer m.partLock.Unlock()
	delete(m.severed, addr)
}

// Send implements Network. The handler runs on the caller's goroutine;
// concurrency across components comes from the callers themselves,
// matching "there can be multiple threads executing in multiple
// different components in a process".
func (m *Mem) Send(addr string, req []byte) ([]byte, error) {
	m.partLock.RLock()
	cut := m.severed[addr]
	m.partLock.RUnlock()
	if cut {
		return nil, fmt.Errorf("%w: %s (partitioned)", ErrUnavailable, addr)
	}
	m.mu.RLock()
	h := m.handlers[addr]
	m.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, addr)
	}
	m.sleep(m.rtt/2 + m.jitterDelay())
	resp, err := h(req)
	if err != nil {
		return nil, err
	}
	m.sleep(m.rtt - m.rtt/2 + m.jitterDelay())
	return resp, nil
}

func (m *Mem) sleep(d time.Duration) {
	if d > 0 && m.clock != nil {
		m.clock.Sleep(d)
	}
}
