package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ShutdownPathConfig scopes the shutdownpath analyzer.
type ShutdownPathConfig struct {
	// Packages are the import paths checked. Empty means core + wal.
	Packages []string
	// Roots are method/function names that anchor shutdown: a
	// goroutine's join (or a latch's open) must be reachable from a
	// function with one of these names. Empty means the runtime
	// defaults (Close, Crash, Discard, stop, ...).
	Roots []string
	// Latches are close-once readiness channels ("pkgpath.Type.field")
	// that waiters block on: every latch must be opened on shutdown
	// paths and its close must be idempotent. Empty means the
	// context-ready latch.
	Latches []string
}

var (
	defaultShutdownPackages = []string{"repro/internal/core", "repro/internal/wal"}
	defaultShutdownRoots    = []string{
		"Close", "Crash", "Discard", "shutdown", "stop", "Stop",
		"DrainRecovery",
	}
	defaultShutdownLatches = []string{"repro/internal/core.Context.ready"}
)

// spawn is one `go ...` site and what we learned about its body.
type spawn struct {
	pos      token.Position
	fn       string // enclosing function (allowlist unit)
	what     string // description of the spawned body
	sigClass string // field class closed/Done'd by the body, "" if local/none
	sigKind  string // "chan" or "wg"
	hasLocal bool   // body signals via a spawner-local chan/WaitGroup
	joined   bool   // spawner joins the local signal unconditionally
	none     bool   // body has no termination signal at all
}

// latchInfo accumulates facts about one latch class.
type latchInfo struct {
	closers    []string // functions containing close(x.f)
	nonIdem    []token.Position
	nonIdemFns []string
}

// NewShutdownPath returns the shutdownpath analyzer: every goroutine
// spawned in the checked packages must signal termination (close a
// done channel or call WaitGroup.Done) and that signal must be joined
// — locally by its spawner, or from a function reachable from a
// shutdown root (Close/Crash/stop). Every configured latch must be
// opened by a close() that is idempotent (guarded by a ready-poll
// select or sync.Once) and reachable from a shutdown root, so a crash
// can never strand waiters — the engine.stop() bug class PR 8 fixed by
// hand.
func NewShutdownPath(cfg ShutdownPathConfig, allow *Allowlist) *Analyzer {
	pkgs := toSet(cfg.Packages, defaultShutdownPackages)
	roots := toSet(cfg.Roots, defaultShutdownRoots)
	latches := toSet(cfg.Latches, defaultShutdownLatches)

	cg := newCallGraph()
	var spawns []*spawn
	// joiners maps a field class to the functions that join it
	// (receive from the chan, or call .Wait on the WaitGroup).
	joiners := map[string]map[string]bool{}
	latchState := map[string]*latchInfo{}
	// allFuncs is every analyzed function — the candidate set for
	// shutdown roots (a leaf Close makes no calls, so cg.edges alone
	// would miss it).
	allFuncs := map[string]bool{}

	addJoiner := func(class, fn string) {
		if joiners[class] == nil {
			joiners[class] = map[string]bool{}
		}
		joiners[class][fn] = true
	}

	return &Analyzer{
		Name: "shutdownpath",
		Doc:  "every spawned goroutine is joined from a shutdown path; every latch is opened on all exits",
		Run: func(pass *Pass) error {
			if !pkgs[pass.Pkg.Path()] {
				return nil
			}
			cg.addPackage(pass)
			WalkFuncs(pass, func(decl *ast.FuncDecl, fname string) {
				allFuncs[fname] = true
				if decl.Body == nil {
					return
				}
				collectShutdownFacts(pass, decl, fname, latches, spawnSink{
					spawn:  func(s *spawn) { spawns = append(spawns, s) },
					joiner: addJoiner,
					latch: func(class string, idempotent bool, pos token.Pos) {
						li := latchState[class]
						if li == nil {
							li = &latchInfo{}
							latchState[class] = li
						}
						li.closers = append(li.closers, fname)
						if !idempotent {
							li.nonIdem = append(li.nonIdem, pass.Fset.Position(pos))
							li.nonIdemFns = append(li.nonIdemFns, fname)
						}
					},
				})
			})
			return nil
		},
		Finish: func(report func(Diagnostic)) {
			finishShutdownPath(cg, allFuncs, spawns, joiners, latchState, latches, roots, allow, report)
		},
	}
}

type spawnSink struct {
	spawn  func(*spawn)
	joiner func(class, fn string)
	latch  func(class string, idempotent bool, pos token.Pos)
}

// collectShutdownFacts walks one declaration for go statements, join
// operations and latch closes.
func collectShutdownFacts(pass *Pass, decl *ast.FuncDecl, fname string, latches map[string]bool, sink spawnSink) {
	info := pass.Info
	// funcLits maps local variables assigned a function literal, so
	// `drain := func(...){...}; go drain(q)` resolves.
	funcLits := map[*types.Var]*ast.FuncLit{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
			if !ok {
				continue
			}
			if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
				if v, _ := info.Defs[id].(*types.Var); v != nil {
					funcLits[v] = lit
				}
			}
		}
		return true
	})

	localVarOf := func(e ast.Expr) types.Object {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && v.Pkg() != nil && v.Parent() != nil && v.Parent() != v.Pkg().Scope() {
				return v
			}
		}
		return nil
	}

	// signalsOf inspects a goroutine body for its termination signal.
	signalsOf := func(body ast.Node) (fieldClass, kind string, localObj types.Object, hasAny bool) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				switch CalleeString(info, n) {
				case "close":
					// handled via Ident case below (close is a builtin,
					// Callee returns nil) — nothing here.
				case "(*sync.WaitGroup).Done":
					hasAny = true
					if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
						if class := fieldClassOf(info, sel.X); class != "" {
							fieldClass, kind = class, "wg"
						} else if obj := localVarOf(sel.X); obj != nil {
							localObj, kind = obj, "wg"
						}
					}
					return false
				}
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
					hasAny = true
					if class := fieldClassOf(info, n.Args[0]); class != "" {
						fieldClass, kind = class, "chan"
					} else if obj := localVarOf(n.Args[0]); obj != nil {
						localObj, kind = obj, "chan"
					}
					return false
				}
			}
			return true
		})
		return
	}

	// localJoins: unconditional joins of local signals in this
	// function: wg.Wait() anywhere, or <-ch outside a multi-case
	// select.
	localJoins := map[types.Object]bool{}
	condJoins := map[types.Object]bool{}
	var scanJoins func(n ast.Node)
	scanJoins = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectStmt:
				multi := len(n.Body.List) > 1
				for _, cl := range n.Body.List {
					cc, ok := cl.(*ast.CommClause)
					if !ok {
						continue
					}
					if u := recvExpr(cc.Comm); u != nil {
						if obj := localVarOf(u.X); obj != nil {
							if multi {
								condJoins[obj] = true
							} else {
								localJoins[obj] = true
							}
						}
						if class := fieldClassOf(info, u.X); class != "" && !multi {
							sink.joiner(class, fname)
						}
					}
					for _, st := range cc.Body {
						scanJoins(st)
					}
				}
				return false
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					if obj := localVarOf(n.X); obj != nil {
						localJoins[obj] = true
					}
					if class := fieldClassOf(info, n.X); class != "" {
						sink.joiner(class, fname)
					}
				}
			case *ast.CallExpr:
				if CalleeString(info, n) == "(*sync.WaitGroup).Wait" {
					if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
						if obj := localVarOf(sel.X); obj != nil {
							localJoins[obj] = true
						}
						if class := fieldClassOf(info, sel.X); class != "" {
							sink.joiner(class, fname)
						}
					}
				}
			}
			return true
		})
	}
	scanJoins(decl.Body)

	// Latch closes: close(x.f) for a configured latch class must sit
	// inside an idempotent guard — a select with a default clause that
	// also polls <-x.f, or a sync.Once.Do literal.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
			class := fieldClassOf(info, call.Args[0])
			if class != "" && latches[class] {
				sink.latch(class, latchCloseIdempotent(info, decl.Body, call, class), call.Pos())
			}
		}
		return true
	})

	// Go statements.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		s := &spawn{pos: pass.Fset.Position(g.Pos()), fn: fname}
		var body ast.Node
		switch fun := ast.Unparen(g.Call.Fun).(type) {
		case *ast.FuncLit:
			s.what = "goroutine"
			body = fun.Body
		case *ast.Ident:
			if v, _ := info.Uses[fun].(*types.Var); v != nil && funcLits[v] != nil {
				s.what = fun.Name
				body = funcLits[v].Body
			} else if fn, _ := info.Uses[fun].(*types.Func); fn != nil {
				s.what = FuncString(fn)
				body = declBodyOf(pass, fn)
			}
		case *ast.SelectorExpr:
			if fn, _ := info.Uses[fun.Sel].(*types.Func); fn != nil {
				s.what = FuncString(fn)
				body = declBodyOf(pass, fn)
			}
		}
		if body == nil {
			s.none = true
			s.what = "goroutine (unresolved target)"
			sink.spawn(s)
			return true
		}
		fieldClass, kind, localObj, hasAny := signalsOf(body)
		switch {
		case fieldClass != "":
			s.sigClass, s.sigKind = fieldClass, kind
		case localObj != nil:
			s.hasLocal = true
			s.joined = localJoins[localObj]
		case !hasAny:
			s.none = true
		default:
			s.hasLocal = true // signal found but target unresolved: treat as local, unjoined
		}
		sink.spawn(s)
		return true
	})
}

// recvExpr extracts the receive of a select comm clause, if any.
func recvExpr(comm ast.Stmt) *ast.UnaryExpr {
	switch comm := comm.(type) {
	case *ast.ExprStmt:
		if u, ok := comm.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return u
		}
	case *ast.AssignStmt:
		for _, rhs := range comm.Rhs {
			if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return u
			}
		}
	}
	return nil
}

// declBodyOf finds the body of fn when it is declared in the current
// package's files.
func declBodyOf(pass *Pass, fn *types.Func) ast.Node {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, _ := pass.Info.Defs[fd.Name].(*types.Func); obj == fn {
				if fd.Body == nil {
					return nil
				}
				return fd.Body
			}
		}
	}
	return nil
}

// latchCloseIdempotent reports whether the close(x.f) call is guarded:
// inside a select that has both a default clause and a ready-poll
// receive of the same class, or inside a sync.Once.Do closure.
func latchCloseIdempotent(info *types.Info, body *ast.BlockStmt, target *ast.CallExpr, class string) bool {
	guarded := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			if !containsNode(n, target) {
				return true
			}
			hasDefault, polls := false, false
			for _, cl := range n.Body.List {
				cc, ok := cl.(*ast.CommClause)
				if !ok {
					continue
				}
				if cc.Comm == nil {
					hasDefault = true
				} else if u := recvExpr(cc.Comm); u != nil && fieldClassOf(info, u.X) == class {
					polls = true
				}
			}
			if hasDefault && polls {
				guarded = true
			}
		case *ast.CallExpr:
			if CalleeString(info, n) == "(*sync.Once).Do" && containsNode(n, target) && n != target {
				guarded = true
			}
		}
		return true
	})
	return guarded
}

func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

func finishShutdownPath(cg *callGraph, allFuncs map[string]bool, spawns []*spawn, joiners map[string]map[string]bool, latchState map[string]*latchInfo, latches, roots map[string]bool, allow *Allowlist, report func(Diagnostic)) {
	// Functions reachable from any shutdown root, over the
	// devirtualized call graph. Roots come from the full function set,
	// not cg.edges: a leaf Close with no outgoing calls is still a root.
	var rootFns []string
	for fn := range allFuncs {
		if roots[methodName(fn)] {
			rootFns = append(rootFns, fn)
		}
	}
	sort.Strings(rootFns)
	reach := cg.reachable(rootFns)

	joinedFromShutdown := func(class string) (string, bool) {
		fns := make([]string, 0, len(joiners[class]))
		for fn := range joiners[class] {
			fns = append(fns, fn)
		}
		sort.Strings(fns)
		for _, fn := range fns {
			if reach[fn] {
				return fn, true
			}
		}
		return "", false
	}

	for _, s := range spawns {
		if allow.Allowed("shutdownpath", s.fn) {
			continue
		}
		switch {
		case s.none:
			report(Diagnostic{Pos: s.pos, Fn: s.fn, Message: fmt.Sprintf(
				"%s spawned in %s has no termination signal (no done-channel close, no WaitGroup.Done); it cannot be joined on shutdown — signal completion or allowlist %s",
				s.what, s.fn, s.fn)})
		case s.sigClass != "":
			if _, ok := joinedFromShutdown(s.sigClass); !ok {
				report(Diagnostic{Pos: s.pos, Fn: s.fn, Message: fmt.Sprintf(
					"%s spawned in %s signals %s but no Close/Crash/stop path joins it (no receive/Wait reachable from a shutdown root); join it or allowlist %s",
					s.what, s.fn, s.sigClass, s.fn)})
			}
		case s.hasLocal && !s.joined:
			report(Diagnostic{Pos: s.pos, Fn: s.fn, Message: fmt.Sprintf(
				"%s spawned in %s signals a local channel/WaitGroup that %s does not unconditionally join; it may outlive its spawner — join it or allowlist %s",
				s.what, s.fn, s.fn, s.fn)})
		}
	}

	classes := make([]string, 0, len(latches))
	for class := range latches {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		li := latchState[class]
		if li == nil {
			continue // latch not closed in analyzed packages: nothing to prove
		}
		for i, pos := range li.nonIdem {
			if allow.Allowed("shutdownpath", li.nonIdemFns[i]) {
				continue
			}
			report(Diagnostic{Pos: pos, Fn: li.nonIdemFns[i], Message: fmt.Sprintf(
				"close of latch %s in %s is not idempotent; guard it with a ready-poll select or sync.Once so shutdown and completion can race safely",
				class, li.nonIdemFns[i])})
		}
		opened := false
		for _, fn := range li.closers {
			if reach[fn] {
				opened = true
				break
			}
		}
		if !opened && len(li.closers) > 0 {
			sort.Strings(li.closers)
			report(Diagnostic{Pos: token.Position{}, Fn: li.closers[0], Message: fmt.Sprintf(
				"latch %s is opened only in %s, which no Close/Crash/stop path reaches; a crash would strand waiters (the engine.stop bug class)",
				class, strings.Join(li.closers, ", "))})
		}
	}
}

// methodName extracts the bare function/method name from FuncString
// spelling: "(T).M" -> "M", "pkg.F" -> "F".
func methodName(fn string) string {
	if i := strings.LastIndex(fn, ")."); i >= 0 {
		return fn[i+2:]
	}
	if i := strings.LastIndex(fn, "."); i >= 0 {
		return fn[i+1:]
	}
	return fn
}
