package lint

import (
	"go/ast"
)

// WallclockConfig scopes the wallclock analyzer.
type WallclockConfig struct {
	// Packages are the import paths where direct wall-clock reads are
	// banned (they must run on the universe clock).
	Packages []string
	// Banned are the call targets (FuncString spelling) that read or
	// wait on the wall clock. Empty means the package time's readers,
	// sleepers and timers.
	Banned []string
}

var defaultWallclockBanned = []string{
	"time.Now", "time.Since", "time.Until", "time.Sleep",
	"time.After", "time.Tick", "time.NewTimer", "time.NewTicker",
	"time.AfterFunc",
}

// NewWallclock returns the wallclock analyzer: inside the configured
// packages, every read of or wait on the wall clock must go through
// the clock abstraction (disk.Clock / the universe clock), so that
// simulated-time runs stay deterministic and scaled runs report model
// time. Host-side instrumentation — latency histograms, busy-time sums
// — has one sanctioned route, obs.Stopwatch: a monotonic reading that
// is not a time.* call, so it passes here by construction and a site
// that uses it needs no allowlist entry. A wall read that must stay
// one is granted per function in the allowlist.
//
// This is the bug class PR 3 fixed by hand: recovery durations read
// time.Now under a VirtualClock and reported nonsense.
func NewWallclock(cfg WallclockConfig, allow *Allowlist) *Analyzer {
	banned := map[string]bool{}
	names := cfg.Banned
	if len(names) == 0 {
		names = defaultWallclockBanned
	}
	for _, n := range names {
		banned[n] = true
	}
	pkgs := map[string]bool{}
	for _, p := range cfg.Packages {
		pkgs[p] = true
	}
	return &Analyzer{
		Name: "wallclock",
		Doc:  "ban direct wall-clock reads outside the clock abstraction in simulation-clocked packages",
		Run: func(pass *Pass) error {
			if !pkgs[pass.Pkg.Path()] {
				return nil
			}
			WalkFuncs(pass, func(decl *ast.FuncDecl, fname string) {
				if allow.Allowed("wallclock", fname) {
					return
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := CalleeString(pass.Info, call); banned[callee] {
						pass.ReportfFn(call.Pos(), fname,
							"%s reads the wall clock in %s; use the universe clock (disk.Clock) for model time and obs.Stopwatch for host-side instrumentation, or allowlist %s in phoenix-lint.allow if this wall read is deliberate",
							callee, fname, fname)
					}
					return true
				})
			})
			return nil
		},
	}
}
