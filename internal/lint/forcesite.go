package lint

import "go/ast"

// forcesiteGuarded are the call targets (FuncString spelling) that
// append to or force the write-ahead log.
var forcesiteGuarded = map[string]bool{
	"(*repro/internal/wal.Log).Append":       true,
	"(*repro/internal/wal.Log).AppendInto":   true,
	"(*repro/internal/wal.Log).AppendLinked": true,
	"(*repro/internal/wal.Log).SyncTo":       true,
	"(*repro/internal/wal.Log).SyncAll":      true,
	// The Writer interface exposes the same entry points; core calls
	// through it, so without these the analyzer would lose its coverage
	// the moment a call site is typed wal.Writer instead of *wal.Log. A
	// *wal.Set's are its Log's, promoted: the entries above.
	"(repro/internal/wal.Writer).AppendInto":   true,
	"(repro/internal/wal.Writer).AppendLinked": true,
	"(repro/internal/wal.Writer).SyncTo":       true,
	"(repro/internal/wal.Writer).SyncAll":      true,
}

// forcesiteExempt is the log manager's own package, where the entry
// points live: it may call them freely.
const forcesiteExempt = "repro/internal/wal"

// NewForcesite returns the forcesite analyzer: the wal append/force
// entry points may only be called from the blessed functions the
// allowlist lists for "forcesite" — the Algorithm 2/3/5 intercept
// chokepoints, checkpointing and recovery all route through them. It
// reports every call outside the wal package; the Runner drops the
// blessed ones. A call from anywhere else is an unaccounted force path:
// it would leak device syncs past the paper's per-site force accounting
// (Tables 4-5) and past the per-kind record counters.
func NewForcesite() *Analyzer {
	return &Analyzer{
		Name: "forcesite",
		Doc:  "wal append/force entry points may only be called from the blessed accounting chokepoints",
		Run: func(pass *Pass) error {
			if pass.Pkg.Path() == forcesiteExempt {
				return nil
			}
			WalkFuncs(pass, func(decl *ast.FuncDecl, fname string) {
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := CalleeString(pass.Info, call); forcesiteGuarded[callee] {
						pass.ReportfFn(call.Pos(), fname,
							"%s called from %s, which is not a blessed force/append site; route through a forcesite chokepoint listed in phoenix-lint.allow, or bless the caller there",
							callee, fname)
					}
					return true
				})
			})
			return nil
		},
	}
}
