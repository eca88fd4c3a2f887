package lint

import (
	"go/ast"
	"go/types"
)

// LocksyncConfig scopes the locksync analyzer.
type LocksyncConfig struct {
	// Packages are the import paths checked (the log manager and the
	// engine that drives it).
	Packages []string
	// Blocking are the call targets (FuncString spelling) that can
	// block on device I/O or real time. Empty means the runtime
	// defaults: file syncs, the disk model's sync, clock sleeps,
	// segment creation, and the wal append/force entry points core
	// reaches while holding its own mutexes.
	Blocking []string
	// Mutexes are the lock classes ("pkgpath.Type.field") whose
	// critical sections must stay free of blocking calls. Empty means
	// every lock the replay can see (the strict mode fixtures use);
	// the repository configuration names the log, engine and
	// lazy-recovery mutexes explicitly so that coarse outer locks
	// like the per-context mutex — which serializes whole handler
	// executions, forces included, by design — stay exempt.
	Mutexes []string
}

var defaultLocksyncBlocking = []string{
	"(*os.File).Sync",
	"(repro/internal/disk.Model).Sync",
	"(repro/internal/disk.Clock).Sleep",
	"time.Sleep",
	"(*repro/internal/wal.Log).createSegment",
}

// NewLocksync returns the locksync analyzer: no call that can block on
// device I/O may run while a guarded mutex is held — the PR-2
// invariant that keeps Append from ever waiting behind an in-flight
// force (device syncs run with the log mutex released; see
// (*wal.Log).syncLocked), extended to the lazy-recovery engine mutex.
//
// The check is lexical and intra-procedural: within each function it
// replays Lock/Unlock/defer-Unlock calls in source order — with lock
// *classes* resolved from the mutex operand, and closures scoped
// separately — and flags the configured blocking calls made while a
// guarded lock is held. A function whose name ends in "Locked" is
// assumed to be entered with its receiver's mu held (the package's
// naming convention). Cond.Wait is fine — it releases the mutex.
// Calls reached indirectly (a helper that syncs, called under the
// lock) are caught only if the helper is itself in the blocking list.
func NewLocksync(cfg LocksyncConfig) *Analyzer {
	blocking := toSet(cfg.Blocking, defaultLocksyncBlocking)
	pkgs := toSet(cfg.Packages, []string{"repro/internal/wal"})
	guardedClass := func(class string) bool { return true }
	if len(cfg.Mutexes) > 0 {
		classes := toSet(cfg.Mutexes, nil)
		guardedClass = func(class string) bool { return classes[class] }
	}
	return &Analyzer{
		Name: "locksync",
		Doc:  "no device I/O while a log or engine mutex is held (syncs run with the mutex released)",
		Run: func(pass *Pass) error {
			if !pkgs[pass.Pkg.Path()] {
				return nil
			}
			WalkFuncs(pass, func(decl *ast.FuncDecl, fname string) {
				walkLocks(pass, decl, lockWalkConfig{}, lockCallbacks{
					call: func(held []heldLock, fn *types.Func, call *ast.CallExpr, inGo bool) {
						if !blocking[FuncString(fn)] {
							return
						}
						for _, h := range held {
							if !guardedClass(h.Class) {
								continue
							}
							lock := "the mutex"
							if h.Class != "" {
								lock = h.Class
							}
							pass.ReportfFn(call.Pos(), fname,
								"%s can block on device I/O while %s is held in %s; release the mutex around the sync (see (*wal.Log).syncLocked) or allowlist %s in phoenix-lint.allow",
								FuncString(fn), lock, fname, fname)
							return
						}
					},
				})
			})
			return nil
		},
	}
}

func isLockAcquire(callee string) bool {
	switch callee {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
		return true
	}
	return false
}

func isLockRelease(callee string) bool {
	switch callee {
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock", "(*sync.RWMutex).RUnlock":
		return true
	}
	return false
}
