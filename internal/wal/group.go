package wal

import (
	"time"

	"repro/internal/disk"
)

// Group commit: the leader's commit window. Concurrent force requests
// always combine — the first requester leads the device sync, later
// ones wait for it and ride it when it covers them (syncTarget; the
// paper's Section 3.1 combined force). Group commit makes the
// combining deliberate: a leader that did not itself wait through a
// previous sync first holds a fixed commit window with the mutex
// released, so concurrent committers append and line up behind it
// before it flushes, and one device sync covers them all. A leader
// elected after waiting skips the window: the sync it waited through
// was the batching interval, and its company is already lined up.
//
// There is no queue to bound: a waiting request is a goroutine blocked
// on syncDone, exactly what it would be blocked in any other design.

// GroupCommitConfig switches the commit window on.
type GroupCommitConfig struct {
	// Enabled makes a fresh sync leader hold the commit window before
	// it flushes. False leaves combining opportunistic: requests ride
	// a sync only if one happens to be in flight.
	Enabled bool
}

// commitWindow is how long a fresh leader waits for company: well
// under one device sync, long enough for committers already on their
// way to append.
const commitWindow = 200 * time.Microsecond

// StartGroupCommit turns the commit window on per cfg. The window
// sleeps on clock (nil means an unscaled wall clock); the runtime
// passes the universe's clock, so a virtual clock makes the window
// deterministic and instant. No-op when cfg.Enabled is false.
func (l *Log) StartGroupCommit(cfg GroupCommitConfig, clock disk.Clock) {
	if !cfg.Enabled {
		return
	}
	if clock == nil {
		clock = disk.NewRealClock(1)
	}
	l.mu.Lock()
	l.window = clock
	l.mu.Unlock()
}
