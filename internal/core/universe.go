package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/recsvc"
	"repro/internal/transport"
)

// Universe is the simulated distributed system: a set of machines
// connected by a network, sharing a clock. A crash of a virtual process
// discards exactly the volatile state a real process would lose (its
// objects, tables and log buffer) and keeps what survives (the log
// file, the well-known file, the recovery service's table), so the
// recovery protocol runs unmodified against it. For two real OS
// processes, use a transport.TCP network and one Universe per process.
type Universe struct {
	cfg UniverseConfig

	// metrics is the universe-level registry (default for processes
	// that set no Config.Metrics); rpcm caches its rpc.* view for the
	// send hot path.
	metrics *obs.Registry
	rpcm    *obs.RuntimeMetrics

	mu       sync.Mutex
	machines map[string]*Machine
}

// UniverseConfig configures the simulated world.
type UniverseConfig struct {
	// Dir is the root directory for logs and service tables; one
	// subdirectory is created per machine. Required.
	Dir string
	// Clock drives simulated latencies (disk rotation, network,
	// retries). Nil means a wall clock at full speed.
	Clock disk.Clock
	// Net carries messages between processes. Nil means an in-memory
	// network with no injected latency; pass transport.NewMem(clock,
	// rtt) to inject a round trip (the paper measures ~0.2 ms per
	// remote call).
	Net transport.Network
	// DiskModel builds the log device model for each new process. Nil
	// means disk.HostModel (no simulated latency), which the test
	// suite uses; the experiment harness passes 7200-RPM SimDisks.
	DiskModel func(machine, process string) disk.Model
	// AddrFor overrides transport addressing. By default a process's
	// address is "machine/process", which the Mem network routes; a
	// TCP deployment maps process names to host:port here.
	AddrFor func(machine, process string) string
	// Metrics is the universe's observability registry: transport and
	// rpc activity is accounted here, and processes whose Config sets
	// no registry of their own inherit it. Nil means obs.Default().
	Metrics *obs.Registry
	// Trace is the causal-tracing flight recorder: external interactions
	// get TraceIDs minted from it, transport round trips record spans
	// into it, and processes whose Config sets no recorder of their own
	// inherit it. Nil means tracing off (the zero-cost default).
	Trace *trace.Recorder

	// dev is the device under every process log (nil:
	// disk.HostDevice). Core's tests hand in a power cut here.
	dev disk.Device
}

// NewUniverse creates a world rooted at cfg.Dir.
func NewUniverse(cfg UniverseConfig) (*Universe, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("core: UniverseConfig.Dir is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = disk.NewRealClock(1)
	}
	if cfg.Net == nil {
		cfg.Net = transport.NewMem(cfg.Clock, 0)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default()
	}
	if cfg.dev == nil {
		cfg.dev = disk.HostDevice{}
	}
	// Every message between processes crosses the instrumented
	// transport, giving transport.* counts and latencies for free.
	cfg.Net = transport.Instrument(cfg.Net, cfg.Metrics)
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: mkdir %s: %w", cfg.Dir, err)
	}
	return &Universe{
		cfg:      cfg,
		metrics:  cfg.Metrics,
		rpcm:     obs.RuntimeView(cfg.Metrics),
		machines: make(map[string]*Machine),
	}, nil
}

// Metrics returns the universe-level observability registry.
func (u *Universe) Metrics() *obs.Registry { return u.metrics }

// Clock returns the universe's clock.
func (u *Universe) Clock() disk.Clock { return u.cfg.Clock }

// AddMachine creates (or returns) the named machine and its recovery
// service.
func (u *Universe) AddMachine(name string) (*Machine, error) {
	if err := validateName("machine", name); err != nil {
		return nil, err
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if m, ok := u.machines[name]; ok {
		return m, nil
	}
	dir := filepath.Join(u.cfg.Dir, name)
	svc, err := recsvc.Open(dir)
	if err != nil {
		return nil, err
	}
	m := &Machine{u: u, name: name, dir: dir, svc: svc, procs: make(map[string]*Process)}
	u.machines[name] = m
	return m, nil
}

// Machine returns an existing machine by name.
func (u *Universe) Machine(name string) (*Machine, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	m, ok := u.machines[name]
	return m, ok
}

// Shutdown cleanly closes every live process on every machine and
// disables auto-restart. State on disk is preserved; a new Universe
// over the same directory recovers everything.
func (u *Universe) Shutdown() {
	u.mu.Lock()
	machines := make([]*Machine, 0, len(u.machines))
	for _, m := range u.machines {
		machines = append(machines, m)
	}
	u.mu.Unlock()
	for _, m := range machines {
		m.svc.DisableAutoRestart()
		m.mu.Lock()
		procs := make([]*Process, 0, len(m.procs))
		for _, p := range m.procs {
			procs = append(procs, p)
		}
		m.mu.Unlock()
		for _, p := range procs {
			p.Close()
		}
	}
}

// addrFor resolves a machine/process pair to a transport address.
func (u *Universe) addrFor(machine, process string) string {
	if u.cfg.AddrFor != nil {
		return u.cfg.AddrFor(machine, process)
	}
	return machine + "/" + process
}

// addrForURI resolves a component URI to its process's address.
func (u *Universe) addrForURI(uri ids.URI) (string, error) {
	machine, process, _, err := uri.Split()
	if err != nil {
		return "", err
	}
	return u.addrFor(machine, process), nil
}

// ExternalRef returns a proxy for calling a component as an external
// client: no Phoenix identity is attached, nothing is logged at the
// caller, and nothing is guaranteed — exactly the paper's external
// components. retryOnFailure controls whether the proxy redrives the
// call when the server is unavailable (an external client that does
// not retry simply sees the failure).
func (u *Universe) ExternalRef(uri ids.URI) *Ref {
	return &Ref{u: u, target: uri, external: true}
}

// Machine is one node: it hosts processes, owns their on-disk state
// directory, and runs the machine's recovery service.
type Machine struct {
	u    *Universe
	name string
	dir  string
	svc  *recsvc.Service

	mu    sync.Mutex
	procs map[string]*Process
}

// Name returns the machine name (the first part of method-call IDs).
func (m *Machine) Name() string { return m.name }

// Service exposes the machine's recovery service.
func (m *Machine) Service() *recsvc.Service { return m.svc }

// StartProcess boots (or reboots) a virtual process. If the process
// name is already registered with the recovery service and has a log,
// the new process instance recovers automatically before accepting
// calls — the paper's restart path. Starting a process whose previous
// instance is still alive crashes the old instance first (a process
// cannot run twice).
func (m *Machine) StartProcess(name string, cfg Config) (*Process, error) {
	if err := validateName("process", name); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if old := m.procs[name]; old != nil && !old.crashed.Load() {
		m.mu.Unlock()
		return nil, fmt.Errorf("core: process %s/%s is already running", m.name, name)
	}
	m.mu.Unlock()

	procID, existing, err := m.svc.Register(name)
	if err != nil {
		return nil, err
	}
	p, err := newProcess(m, name, procID, cfg)
	if err != nil {
		return nil, err
	}
	// Listen before recovering: replay that runs off the end of the
	// log resumes live execution, and its outgoing calls may target
	// components of this same process. Contexts being replayed hold
	// incoming calls at their ready gate until their recovery is done.
	if err := p.listen(); err != nil {
		if cerr := p.Close(); cerr != nil {
			err = fmt.Errorf("%w (close: %v)", err, cerr)
		}
		return nil, err
	}
	if existing {
		// Explicit two-phase restart: restore rebuilds the context
		// tables and restart LSNs from Pass 1, admit arms the replay
		// engine and waits for it (eager) or lets it run around live
		// traffic (lazy).
		plan, err := p.restore()
		if err == nil {
			err = p.admit(plan)
		}
		if err != nil {
			if cerr := p.Close(); cerr != nil {
				err = fmt.Errorf("%w (close: %v)", err, cerr)
			}
			return nil, fmt.Errorf("core: recover %s/%s: %w", m.name, name, err)
		}
	}
	p.markStarted()
	m.mu.Lock()
	m.procs[name] = p
	m.mu.Unlock()
	return p, nil
}

// Process returns a running process by name.
func (m *Machine) Process(name string) (*Process, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.procs[name]
	return p, ok
}

// EnableAutoRestart makes the recovery service restart crashed
// processes with the given config after delay — the paper's "monitors
// the abnormal exits of the registered processes and restarts those
// processes". The delay is model time: it passes on the universe
// clock, at once on a virtual one.
func (m *Machine) EnableAutoRestart(cfg Config, delay time.Duration) {
	m.svc.EnableAutoRestart(func(procName string) error {
		if delay > 0 {
			m.u.cfg.Clock.Sleep(delay)
		}
		_, err := m.StartProcess(procName, cfg)
		return err
	})
}
