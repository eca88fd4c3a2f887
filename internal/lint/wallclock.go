package lint

import "go/ast"

// WallclockConfig scopes the wallclock analyzer.
type WallclockConfig struct {
	// Packages are the import paths where direct wall-clock reads are
	// banned (they must run on the universe clock).
	Packages []string
}

// wallclockBanned are package time's readers, sleepers and timers.
var wallclockBanned = map[string]bool{
	"time.Now": true, "time.Since": true, "time.Until": true, "time.Sleep": true,
	"time.After": true, "time.Tick": true, "time.NewTimer": true, "time.NewTicker": true,
	"time.AfterFunc": true,
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
func NewWallclock(cfg WallclockConfig) *Analyzer {
	pkgs := toSet(cfg.Packages, nil)
	return &Analyzer{
		Name: "wallclock",
		Doc:  "ban direct wall-clock reads outside the clock abstraction in simulation-clocked packages",
		Run: func(pass *Pass) error {
			if !pkgs[pass.Pkg.Path()] {
				return nil
			}
			WalkFuncs(pass, func(decl *ast.FuncDecl, fname string) {
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := CalleeString(pass.Info, call); wallclockBanned[callee] {
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
