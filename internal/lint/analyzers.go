package lint

// Analyzers returns the phoenix-lint suite configured for this
// repository. The returned analyzers carry run state (lockorder and
// shutdownpath decide at Finish, once every package has been seen), so
// build a fresh set per Runner.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NewForcesite(),
		NewWallclock(WallclockConfig{
			Packages: []string{
				"repro/internal/core",
				"repro/internal/wal",
				"repro/internal/bench",
			},
		}),
		NewLocksync(repoLocksyncConfig()),
		NewExhaustive(),
		NewLockOrder(LockOrderConfig{}),
		NewPoolLife(PoolLifeConfig{}),
		NewShutdownPath(ShutdownPathConfig{}),
		NewDroppedErr(DroppedErrConfig{}),
	}
}

// repoLocksyncConfig is the repository's locksync scope: the
// blocking-I/O-free critical sections are the log mutex (a Set's is
// its Log's), the engine registry and the
// lazy-recovery bookkeeping — named
// explicitly so the per-context mutex, which serializes whole handler
// executions (forces included) by design, stays exempt. The blocking
// list adds the wal append/force entry points and the core
// chokepoints that reach them.
func repoLocksyncConfig() LocksyncConfig {
	return LocksyncConfig{
		Packages: []string{
			"repro/internal/wal",
			"repro/internal/core",
		},
		Mutexes: []string{
			"repro/internal/wal.Log.mu",
			"repro/internal/core.Process.mu",
			"repro/internal/core.replayEngine.mu",
		},
		Blocking: append([]string{
			"(*repro/internal/wal.Log).Append",
			"(*repro/internal/wal.Log).AppendInto",
			"(*repro/internal/wal.Log).AppendLinked",
			"(*repro/internal/wal.Log).SyncTo",
			"(*repro/internal/wal.Log).SyncAll",
			"(repro/internal/wal.Writer).AppendInto",
			"(repro/internal/wal.Writer).AppendLinked",
			"(repro/internal/wal.Writer).SyncTo",
			"(repro/internal/wal.Writer).SyncAll",
			"(*repro/internal/core.Process).appendRec",
			"(*repro/internal/core.Process).forceTo",
			"(*repro/internal/core.Process).force",
		}, defaultLocksyncBlocking...),
	}
}

// Check loads the packages matching patterns under dir, runs the full
// suite and applies the embedded allowlist. It returns the remaining
// diagnostics and the dead allowlist entries — what `phoenix-lint
// <patterns>` prints. Entries are judged against the packages loaded,
// so only a whole-tree run (./...) can find none dead.
func Check(dir string, patterns ...string) ([]Diagnostic, []string, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, nil, err
	}
	r := &Runner{Analyzers: Analyzers(), Allow: defaultAllowlist()}
	return r.Run(pkgs)
}

// LockGraphFor loads the packages matching patterns under dir, runs
// the lockorder analyzer alone and returns the acquisition graph it
// observed — the `phoenix-lint -lockgraph` back end. Diagnostics are
// discarded; the graph records every deduplicated edge regardless.
func LockGraphFor(dir string, patterns ...string) (*LockGraph, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	analyzer, graph := NewLockOrderGraph(LockOrderConfig{})
	r := &Runner{Analyzers: []*Analyzer{analyzer}}
	if _, _, err := r.Run(pkgs); err != nil {
		return nil, err
	}
	return graph, nil
}
