package lint

// Analyzers returns the phoenix-lint suite configured for this
// repository, sharing one allowlist. A nil allow means the embedded
// default (phoenix-lint.allow). The returned analyzers carry run
// state (metricnames reconciles declarations against uses at Finish),
// so build a fresh set per Runner.
func Analyzers(allow *Allowlist) []*Analyzer {
	if allow == nil {
		allow = DefaultAllowlist()
	}
	return []*Analyzer{
		NewForcesite(ForcesiteConfig{}, allow),
		NewWallclock(WallclockConfig{
			Packages: []string{
				"repro/internal/core",
				"repro/internal/wal",
				"repro/internal/bench",
			},
		}, allow),
		NewLocksync(repoLocksyncConfig(), allow),
		NewExhaustive(ExhaustiveConfig{}, allow),
		NewMetricNames(MetricNamesConfig{}, allow),
		NewLockOrder(LockOrderConfig{}, allow),
		NewPoolLife(PoolLifeConfig{}, allow),
		NewShutdownPath(ShutdownPathConfig{}, allow),
		NewDroppedErr(DroppedErrConfig{}, allow),
	}
}

// repoLocksyncConfig is the repository's locksync scope: since PRs 7-8
// the blocking-I/O-free critical sections are the per-shard log
// mutexes (every Set shard is a Log), the engine registry and the
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
			"(*repro/internal/wal.Log).AppendLinked",
			"(*repro/internal/wal.Log).SyncTo",
			"(*repro/internal/wal.Log).SyncAll",
			"(*repro/internal/wal.Set).AppendInto",
			"(*repro/internal/wal.Set).AppendLinked",
			"(*repro/internal/wal.Set).SyncTo",
			"(*repro/internal/wal.Set).SyncAll",
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

// UnitAnalyzers is the per-package subset of the suite for `go vet
// -vettool` mode, where every package is analyzed in its own process.
// metricnames is deliberately absent: it reconciles declarations in
// internal/obs against uses across the whole tree, a view a unit
// invocation never has — run standalone phoenix-lint (or `make lint`)
// for the full suite.
func UnitAnalyzers(allow *Allowlist) []*Analyzer {
	all := Analyzers(allow)
	unit := all[:0]
	for _, a := range all {
		if a.Name != "metricnames" {
			unit = append(unit, a)
		}
	}
	return unit
}

// Check loads the packages matching patterns under dir and runs the
// full suite with the given allowlist (nil means embedded default).
// It is the programmatic equivalent of `phoenix-lint <patterns>`.
func Check(dir string, allow *Allowlist, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	r := &Runner{Analyzers: Analyzers(allow)}
	return r.Run(pkgs)
}

// LockGraphFor loads the packages matching patterns under dir, runs
// the lockorder analyzer alone and returns the acquisition graph it
// observed — the `phoenix-lint -lockgraph` back end. Diagnostics are
// discarded; the graph records every deduplicated edge regardless.
func LockGraphFor(dir string, allow *Allowlist, patterns ...string) (*LockGraph, error) {
	if allow == nil {
		allow = DefaultAllowlist()
	}
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	analyzer, graph := NewLockOrderGraph(LockOrderConfig{}, allow)
	r := &Runner{Analyzers: []*Analyzer{analyzer}}
	if _, err := r.Run(pkgs); err != nil {
		return nil, err
	}
	return graph, nil
}
