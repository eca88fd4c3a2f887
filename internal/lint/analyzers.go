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
				"repro/internal/recsvc",
			},
		}),
		NewExhaustive(),
		NewLockOrder(LockOrderConfig{}),
		NewPoolLife(PoolLifeConfig{}),
		NewShutdownPath(ShutdownPathConfig{}),
		NewDroppedErr(DroppedErrConfig{}),
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
