package lint

import (
	"go/ast"
	"go/types"
)

// DroppedErrConfig scopes the droppederr analyzer.
type DroppedErrConfig struct {
	// Packages are the import paths checked. Empty means core + wal.
	Packages []string
	// Guarded are the call targets (FuncString spelling) whose error
	// result must not be discarded: device I/O and codec operations on
	// the durability path. Empty means the runtime defaults.
	Guarded []string
}

var (
	defaultDroppedErrPackages = []string{"repro/internal/core", "repro/internal/wal", "repro/internal/disk"}
	// The guarded set is the durability surface: file syncs and
	// truncations, segment removal, the wal writer life-cycle calls,
	// the record codec and the lazy replay engine. (*os.File).Close is
	// deliberately absent — conventional error-path cleanup closes are
	// not durability events; Sync is.
	defaultDroppedErrGuarded = []string{
		"(*os.File).Sync",
		"(*os.File).Truncate",
		"os.Remove",
		"os.Rename",
		"(*repro/internal/wal.Log).Close",
		"(*repro/internal/wal.Log).Discard",
		"(*repro/internal/wal.Log).Flush",
		"(*repro/internal/wal.Set).Close",
		"(*repro/internal/wal.Set).Discard",
		"(*repro/internal/wal.Set).Flush",
		"(repro/internal/wal.Writer).Close",
		"(repro/internal/wal.Writer).Discard",
		"(repro/internal/wal.Writer).Flush",
		"repro/internal/core.decodeRec",
		"(*repro/internal/core.replayEngine).replayOne",
		"repro/internal/obs/trace.WriteDump",
	}
)

// NewDroppedErr returns the droppederr analyzer: in the checked
// packages, errors from the guarded device-I/O and codec calls may not
// be discarded — neither by calling them as a bare statement (or under
// go/defer) nor by assigning the error result to the blank identifier.
// A deliberate drop (a fail-stop path that cannot act on the error)
// must carry a '# why' allowlist entry instead.
func NewDroppedErr(cfg DroppedErrConfig, allow *Allowlist) *Analyzer {
	pkgs := toSet(cfg.Packages, defaultDroppedErrPackages)
	guarded := toSet(cfg.Guarded, defaultDroppedErrGuarded)
	return &Analyzer{
		Name: "droppederr",
		Doc:  "device I/O and codec errors on the durability path are handled, not discarded",
		Run: func(pass *Pass) error {
			if !pkgs[pass.Pkg.Path()] {
				return nil
			}
			WalkFuncs(pass, func(decl *ast.FuncDecl, fname string) {
				if allow.Allowed("droppederr", fname) || decl.Body == nil {
					return
				}
				checkDroppedErr(pass, decl, fname, guarded)
			})
			return nil
		},
	}
}

func checkDroppedErr(pass *Pass, decl *ast.FuncDecl, fname string, guarded map[string]bool) {
	// guardedCall reports whether call targets a guarded function that
	// returns an error.
	guardedCall := func(call *ast.CallExpr) (string, bool) {
		callee := CalleeString(pass.Info, call)
		if !guarded[callee] {
			return "", false
		}
		return callee, true
	}
	reportDrop := func(call *ast.CallExpr, callee, how string) {
		pass.ReportfFn(call.Pos(), fname,
			"%s error %s in %s; handle it or allowlist %s in phoenix-lint.allow with the invariant that makes dropping it safe",
			callee, how, fname, fname)
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if callee, ok := guardedCall(call); ok {
					reportDrop(call, callee, "discarded (result ignored)")
				}
			}
		case *ast.DeferStmt:
			if callee, ok := guardedCall(n.Call); ok {
				reportDrop(n.Call, callee, "discarded (deferred, result ignored)")
			}
		case *ast.GoStmt:
			if callee, ok := guardedCall(n.Call); ok {
				reportDrop(n.Call, callee, "discarded (spawned, result ignored)")
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, ok := guardedCall(call)
			if !ok {
				return true
			}
			// The error is the last result; dropping it means the last
			// LHS (or a lone LHS for single-result calls) is blank.
			last := ast.Unparen(n.Lhs[len(n.Lhs)-1])
			if id, ok := last.(*ast.Ident); ok && id.Name == "_" {
				if resultIsError(pass.Info, call) {
					reportDrop(call, callee, "assigned to _")
				}
			}
		}
		return true
	})
}

// resultIsError reports whether the call's last result is an error.
func resultIsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	t := tv.Type
	if tuple, ok := t.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return false
		}
		t = tuple.At(tuple.Len() - 1).Type()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}
