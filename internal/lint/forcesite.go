package lint

import (
	"go/ast"
	"sort"
	"strings"
)

// ForcesiteConfig scopes the forcesite analyzer.
type ForcesiteConfig struct {
	// Guarded are the call targets (FuncString spelling) that append
	// to or force the write-ahead log. Empty means the wal.Log entry
	// points.
	Guarded []string
	// ExemptPackages may call the guarded targets freely — the log
	// manager's own package, where the entry points live.
	ExemptPackages []string
}

var defaultForcesiteGuarded = []string{
	"(*repro/internal/wal.Log).Append",
	"(*repro/internal/wal.Log).AppendLinked",
	"(*repro/internal/wal.Log).SyncTo",
	"(*repro/internal/wal.Log).SyncAll",
	// The sharded set and the Writer interface expose the same entry
	// points; core calls through the interface, so without these the
	// analyzer would lose its coverage the moment a call site is typed
	// wal.Writer instead of *wal.Log.
	"(*repro/internal/wal.Set).AppendInto",
	"(*repro/internal/wal.Set).AppendLinked",
	"(*repro/internal/wal.Set).SyncTo",
	"(*repro/internal/wal.Set).SyncAll",
	"(repro/internal/wal.Writer).AppendInto",
	"(repro/internal/wal.Writer).AppendLinked",
	"(repro/internal/wal.Writer).SyncTo",
	"(repro/internal/wal.Writer).SyncAll",
}

// NewForcesite returns the forcesite analyzer: the wal append/force
// entry points may only be called from the blessed functions listed
// for "forcesite" in the allowlist — the Algorithm 2/3/5 intercept
// chokepoints, checkpointing and recovery all route through them. A
// call from anywhere else is an unaccounted force path: it would leak
// device syncs past the paper's per-site force accounting (Tables
// 4-5) and past the per-kind record counters.
func NewForcesite(cfg ForcesiteConfig, allow *Allowlist) *Analyzer {
	guarded := map[string]bool{}
	names := cfg.Guarded
	if len(names) == 0 {
		names = defaultForcesiteGuarded
	}
	for _, n := range names {
		guarded[n] = true
	}
	exempt := map[string]bool{}
	pkgs := cfg.ExemptPackages
	if len(pkgs) == 0 {
		pkgs = []string{"repro/internal/wal"}
	}
	for _, p := range pkgs {
		exempt[p] = true
	}
	blessed := allow.Functions("forcesite")
	sort.Strings(blessed)
	route := "bless the caller in phoenix-lint.allow"
	if len(blessed) > 0 {
		route = "route through " + strings.Join(blessed, ", ") + " or " + route
	}
	return &Analyzer{
		Name: "forcesite",
		Doc:  "wal append/force entry points may only be called from the blessed accounting chokepoints",
		Run: func(pass *Pass) error {
			if exempt[pass.Pkg.Path()] {
				return nil
			}
			WalkFuncs(pass, func(decl *ast.FuncDecl, fname string) {
				if allow.Allowed("forcesite", fname) {
					return
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := CalleeString(pass.Info, call); guarded[callee] {
						pass.ReportfFn(call.Pos(), fname,
							"%s called from %s, which is not a blessed force/append site; %s",
							callee, fname, route)
					}
					return true
				})
			})
			return nil
		},
	}
}
