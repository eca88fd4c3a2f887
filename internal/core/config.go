// Package core implements the Phoenix/App runtime: persistent stateful
// components whose interactions are transparently intercepted, logged
// to a process-local recovery log, and replayed after a failure to
// reconstruct component state with exactly-once semantics.
//
// It is the paper's primary contribution: the baseline force-everything
// logging of the IDEAS-2003 prototype (Algorithm 1), the optimized
// logging disciplines of Section 3 (Algorithms 2-5 and the Section 3.5
// multi-call optimization), the specialized component types
// (subordinate, functional, read-only) and read-only methods, and the
// checkpointing and two-pass recovery of Section 4.
package core

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/wal"
)

// GroupCommit switches on the process log's commit window
// (Config.WAL.GroupCommit): concurrent force requests always share a
// device sync — the first leads it, the rest ride it — and with
// Enabled a leader first waits 200µs of universe-clock time so
// committers already on their way are covered too. The zero value
// leaves the combining opportunistic.
type GroupCommit = wal.GroupCommitConfig

// WALConfig shapes the process's write-ahead log (Config.WAL). The
// zero value is no group commit.
type WALConfig struct {
	// GroupCommit makes the log's sync leader hold a commit window
	// before it flushes: one device sync per batch of committers,
	// deliberately instead of only when their requests happen to
	// overlap. Worth turning on when many contexts (or external
	// clients) commit concurrently against one process log; a lone
	// caller only pays the window latency.
	GroupCommit GroupCommit
}

// RecoveryMode selects when recovery's Pass-2 replay runs relative to
// the process admitting traffic (Config.Recovery.Mode).
type RecoveryMode int

const (
	// RecoveryEager is the classic two-phase restart: the process
	// replays every context's backlog before serving any call. The
	// zero value.
	RecoveryEager RecoveryMode = iota
	// RecoveryLazy opens the process for traffic as soon as Pass 1 has
	// rebuilt the context tables and restart LSNs. A call arriving at
	// an unreplayed context triggers on-demand replay of just that
	// context's backlog on that call's goroutine (blocking only that
	// call; concurrent arrivals wait on the same replay), while the
	// background worker drains the remaining contexts in restart-LSN
	// order.
	RecoveryLazy
)

// String names the mode. Out-of-range values render as a stable
// "RecoveryMode(<n>)" rather than masquerading as a real mode.
func (m RecoveryMode) String() string {
	switch m {
	case RecoveryEager:
		return "eager"
	case RecoveryLazy:
		return "lazy"
	default:
		return fmt.Sprintf("RecoveryMode(%d)", int(m))
	}
}

// Recovery configures crash recovery's replay engine (Config.Recovery).
// restore — Pass 1: contexts, restart LSNs, the head of each context's
// chain of message records — is the one sequential scan. Replay is then
// per context: whoever replays one walks its chain off the log and
// re-executes it oldest first — contexts are single-threaded and
// independent by construction (Section 4.4), so their replays need no
// mutual ordering. One background worker takes the contexts in
// restart-LSN order; a call that touches a context nobody has claimed
// replays it on its own goroutine. The zero value joins the worker
// before the process serves its first call.
type Recovery struct {
	// Mode schedules Pass 2: RecoveryEager (the zero value) replays
	// everything before the process serves calls; RecoveryLazy admits
	// traffic after Pass 1, and walks and replays each context's
	// backlog on first touch or from the background worker.
	Mode RecoveryMode
}

// LogMode selects the logging discipline for persistent components.
type LogMode int

const (
	// LogBaseline is the first prototype's Algorithm 1: every message
	// (1-4) is logged in full and the log is forced immediately.
	LogBaseline LogMode = iota
	// LogOptimized is Section 3.1: receive messages are logged without
	// forcing, send messages are not written at all (they are
	// recreated by replay) but force all previous records, and
	// external-client interactions use Algorithm 3's long/short
	// records.
	LogOptimized
)

// String names the mode as the paper does. Out-of-range values render
// as a stable "LogMode(<n>)" rather than masquerading as a real mode.
func (m LogMode) String() string {
	switch m {
	case LogBaseline:
		return "baseline"
	case LogOptimized:
		return "optimized"
	default:
		return fmt.Sprintf("LogMode(%d)", int(m))
	}
}

// Config are the per-process runtime switches. The zero value is the
// baseline system with no checkpointing — the paper's first prototype.
// "In our new prototype, log optimizations and checkpointing can all be
// turned on or off via switches" (Section 5).
type Config struct {
	// LogMode selects baseline (Algorithm 1) or optimized (Section 3.1)
	// logging for persistent components.
	LogMode LogMode
	// SpecializedTypes honors the Section 3.2/3.3 component and method
	// types: subordinate co-location is structural and always applies,
	// but the functional/read-only logging eliminations (Algorithms 4
	// and 5) and read-only method treatment take effect only when this
	// switch is on.
	SpecializedTypes bool
	// MultiCall enables the Section 3.5 multi-call optimization: an
	// outgoing call to a persistent server that has not yet been
	// invoked during the current method execution does not force the
	// log; the force happens at the component's own reply, or on a
	// second call to the same server.
	MultiCall bool
	// WAL shapes the log: its group commit.
	WAL WALConfig
	// Recovery schedules crash recovery's Pass 2, per context: restore
	// (Pass 1) leaves each context the head of its chain, and the one
	// background worker — or the first call to touch it — walks the
	// chain off the log and replays it. The zero value joins the worker
	// before the process serves.
	Recovery Recovery

	// SaveStateEvery makes a context save a state record after every
	// N-th incoming call it finishes (0 disables; Section 4.2).
	SaveStateEvery int
	// CheckpointEvery makes the process take a process checkpoint
	// after every N-th incoming call it serves (0 disables;
	// Section 4.3).
	CheckpointEvery int
	// AutoTrimLog reclaims dead log segments whenever a process
	// checkpoint becomes durable: everything before the oldest restart
	// LSN / last-call reply record is deleted. The paper's
	// checkpointing bounds recovery time; trimming bounds log space.
	AutoTrimLog bool

	// RetryInterval is how long a client interceptor waits before
	// repeating an outgoing call whose server failed (condition 4:
	// "waits for a while and retries the call using the same method
	// call ID"). Defaults to 50ms.
	RetryInterval time.Duration
	// RetryLimit bounds the repeats before the call is abandoned with
	// an error. The paper retries forever; tests need an exit.
	// Defaults to 600.
	RetryLimit int

	// Injector, when set, crashes the process at named interception
	// points to drive the Figure 2 failure experiments.
	Injector *Injector

	// OnEvent, when set, observes runtime lifecycle events (crashes,
	// recovery, checkpoints, retries, log trims, replayed calls). The
	// callback may run with runtime locks held and must not call back
	// into the runtime.
	OnEvent func(Event)

	// Metrics is the registry this process accounts its runtime
	// counters to: log forces and writes at the device boundary,
	// interceptions per logging discipline, per-site force accounting,
	// checkpoints, recovery activity. Nil falls back to the universe's
	// registry (UniverseConfig.Metrics), then to obs.Default(). Tests
	// asserting the paper's per-algorithm invariants give each process
	// its own registry.
	Metrics *obs.Registry

	// Trace is the flight recorder this process records causal spans
	// into: interception, log-append, sync-wait and replay legs of every
	// traced interaction. Nil falls back to the universe's recorder
	// (UniverseConfig.Trace); nil there too means tracing off — the
	// disabled path costs one pointer check per site.
	Trace *trace.Recorder
}

const (
	defaultRetryInterval = 50 * time.Millisecond
	defaultRetryLimit    = 600
)

func (c Config) retryInterval() time.Duration {
	if c.RetryInterval > 0 {
		return c.RetryInterval
	}
	return defaultRetryInterval
}

func (c Config) retryLimit() int {
	if c.RetryLimit > 0 {
		return c.RetryLimit
	}
	return defaultRetryLimit
}
