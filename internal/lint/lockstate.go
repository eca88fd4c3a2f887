package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the scaffolding shared by the second-generation
// concurrency analyzers (lockorder, locksync, shutdownpath): lock
// *classes* that name a struct field the way config files spell them,
// a lexical walker that replays acquire/release/wait events per
// function with proper scoping for closures and goroutines, and a
// whole-run call graph with cheap interface devirtualization (core
// reaches wal only through the wal.Writer interface, so without it
// every core→wal edge would be lost).

// FieldClass spells a struct field as a lock class:
// "pkgpath.Type.field", e.g. "repro/internal/wal.Log.mu".
func FieldClass(named *types.Named, field string) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name() + "." + field
}

// fieldClassOf resolves the operand of a lock or channel operation
// (x.mu in x.mu.Lock(), lr.slots in lr.slots <- tok) to its lock
// class. Package-level variables resolve to "pkgpath.var". Locals and
// anything else resolve to "" (untracked: a lock nobody else can see
// cannot participate in a cross-function ordering).
func fieldClassOf(info *types.Info, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		sel, ok := info.Selections[e]
		if !ok || sel.Kind() != types.FieldVal {
			// Qualified package-level var: pkg.Var.
			if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
			return ""
		}
		t := sel.Recv()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := types.Unalias(t).(*types.Named)
		if !ok {
			return ""
		}
		return FieldClass(named, sel.Obj().Name())
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

// heldLock is one entry of the lexical held-set.
type heldLock struct {
	Class string // "" for an untracked (local) mutex
	Pos   token.Pos
}

func heldClasses(held []heldLock) []string {
	out := make([]string, 0, len(held))
	for _, h := range held {
		out = append(out, h.Class)
	}
	return out
}

// lockWalkConfig declares which channel-typed classes carry lock-like
// semantics for the walker.
type lockWalkConfig struct {
	// semaphores: buffered channels used as worker semaphores; a send
	// acquires a slot, a receive releases it.
	semaphores map[string]bool
	// latches: close-once readiness channels; a blocking receive (one
	// not inside a select that has a default clause) is a wait event.
	latches map[string]bool
}

// lockCallbacks receive the walker's events. held is the lexical
// held-set at the event, innermost last; inGo is true inside a
// function literal spawned by a go statement (a different goroutine:
// its acquisitions are not nested under the spawner's locks).
type lockCallbacks struct {
	acquire func(held []heldLock, class string, pos token.Pos, inGo bool)
	wait    func(held []heldLock, class string, pos token.Pos, inGo bool)
	call    func(held []heldLock, fn *types.Func, call *ast.CallExpr, inGo bool)
}

// lockScope is the per-goroutine, per-closure replay state.
type lockScope struct {
	held []heldLock
	inGo bool
	// inDefer suppresses release effects: `defer mu.Unlock()` keeps
	// the lock held to the end of the function.
	inDefer bool
}

type lockWalker struct {
	info *types.Info
	cfg  lockWalkConfig
	cb   lockCallbacks
}

// walkLocks replays decl's body. A name ending in "Locked" is entered
// with its receiver's mu held (the package naming convention); the
// seed class is the receiver type's "mu" field when it has one.
func walkLocks(pass *Pass, decl *ast.FuncDecl, cfg lockWalkConfig, cb lockCallbacks) {
	if decl.Body == nil {
		return
	}
	w := &lockWalker{info: pass.Info, cfg: cfg, cb: cb}
	sc := &lockScope{}
	if strings.HasSuffix(decl.Name.Name, "Locked") {
		class := ""
		if fn, _ := pass.Info.Defs[decl.Name].(*types.Func); fn != nil {
			class = recvMutexClass(fn)
		}
		sc.held = append(sc.held, heldLock{Class: class, Pos: decl.Name.Pos()})
	}
	w.walk(decl.Body, sc)
}

// recvMutexClass returns the class of the receiver type's "mu" field,
// or "" when the method has no receiver or the type no such field.
func recvMutexClass(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return ""
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == "mu" {
			return FieldClass(named, "mu")
		}
	}
	return ""
}

func (w *lockWalker) walk(root ast.Node, sc *lockScope) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A plain closure runs on this goroutine but manages its
			// own locks; give it a fresh held-set so a `defer
			// mu.Unlock()` inside (the restart-LSN read in
			// RecoverContext) cannot poison the enclosing function.
			w.walk(n.Body, &lockScope{inGo: sc.inGo})
			return false
		case *ast.DeferStmt:
			w.handleDefer(n, sc)
			return false
		case *ast.GoStmt:
			w.handleGo(n, sc)
			return false
		case *ast.IfStmt:
			w.handleIf(n, sc)
			return false
		case *ast.SelectStmt:
			w.handleSelect(n, sc)
			return false
		case *ast.SendStmt:
			w.walk(n.Value, sc)
			w.handleSend(n, sc)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.handleRecv(n, sc, false)
				return false
			}
		case *ast.CallExpr:
			w.handleCall(n, sc)
			return true // arguments may hold nested calls and literals
		}
		return true
	})
}

func (w *lockWalker) handleCall(call *ast.CallExpr, sc *lockScope) {
	fn := Callee(w.info, call)
	if fn == nil {
		return
	}
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	switch {
	case isLockAcquire(FuncString(fn)):
		class := ""
		if sel != nil {
			class = fieldClassOf(w.info, sel.X)
		}
		if w.cb.acquire != nil {
			w.cb.acquire(sc.held, class, call.Pos(), sc.inGo)
		}
		sc.held = append(sc.held, heldLock{Class: class, Pos: call.Pos()})
	case isLockRelease(FuncString(fn)):
		if sc.inDefer {
			return // held until function exit
		}
		class := ""
		if sel != nil {
			class = fieldClassOf(w.info, sel.X)
		}
		sc.release(class)
	default:
		if w.cb.call != nil {
			w.cb.call(sc.held, fn, call, sc.inGo)
		}
	}
}

// release pops the innermost held entry of class (falling back to the
// innermost entry of any class, so unresolved aliasing degrades to the
// old purely-lexical behavior instead of leaking a phantom lock).
func (sc *lockScope) release(class string) {
	for i := len(sc.held) - 1; i >= 0; i-- {
		if sc.held[i].Class == class {
			sc.held = append(sc.held[:i], sc.held[i+1:]...)
			return
		}
	}
	if n := len(sc.held); n > 0 {
		sc.held = sc.held[:n-1]
	}
}

func (w *lockWalker) handleDefer(d *ast.DeferStmt, sc *lockScope) {
	fn := Callee(w.info, d.Call)
	if fn != nil && isLockRelease(FuncString(fn)) {
		return // deferred unlock: stays held to function exit
	}
	if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
		// Deferred closures run at exit; releases inside must not
		// rewind the lexical held-set of the body that follows.
		w.walk(lit.Body, &lockScope{inGo: sc.inGo, inDefer: true})
		return
	}
	inner := *sc
	inner.inDefer = true
	w.handleCall(d.Call, &inner)
	sc.held = inner.held
}

func (w *lockWalker) handleGo(g *ast.GoStmt, sc *lockScope) {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		w.walk(lit.Body, &lockScope{inGo: true})
		return
	}
	// go x.method(): the callee runs on a new goroutine; report the
	// call so analyzers can model the spawn, flagged inGo with an
	// empty held-set.
	if fn := Callee(w.info, g.Call); fn != nil && w.cb.call != nil {
		w.cb.call(nil, fn, g.Call, true)
	}
}

// handleIf replays both arms. A branch whose body terminates (ends in
// return or panic) cannot leak its locks into the code after the if —
// the `if cond { mu.Lock(); defer mu.Unlock(); ...; return }` fast
// path in (*wal.Log).SyncTo must not poison the slow path below it —
// so the held-set is restored to its pre-branch snapshot.
func (w *lockWalker) handleIf(s *ast.IfStmt, sc *lockScope) {
	if s.Init != nil {
		w.walk(s.Init, sc)
	}
	w.walk(s.Cond, sc)
	saved := append([]heldLock(nil), sc.held...)
	w.walk(s.Body, sc)
	if blockTerminates(s.Body) {
		sc.held = saved
	}
	if s.Else != nil {
		saved = append([]heldLock(nil), sc.held...)
		w.walk(s.Else, sc)
		if blk, ok := s.Else.(*ast.BlockStmt); ok && blockTerminates(blk) {
			sc.held = saved
		}
	}
}

// blockTerminates reports whether the block's last statement leaves the
// function (return, panic, or an unconditional branch out of the
// lexical flow) — the cases where locks acquired inside cannot still be
// held by the code that lexically follows the block.
func blockTerminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func (w *lockWalker) handleSelect(s *ast.SelectStmt, sc *lockScope) {
	hasDefault := false
	for _, cl := range s.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	for _, cl := range s.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		// Each clause replays against a snapshot of the held-set:
		// clauses are alternatives, not a sequence.
		saved := append([]heldLock(nil), sc.held...)
		switch comm := cc.Comm.(type) {
		case *ast.SendStmt:
			w.walk(comm.Value, sc)
			w.handleSend(comm, sc)
		case *ast.ExprStmt:
			if u, ok := comm.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				w.handleRecv(u, sc, hasDefault)
			}
		case *ast.AssignStmt:
			for _, rhs := range comm.Rhs {
				if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					w.handleRecv(u, sc, hasDefault)
				}
			}
		}
		for _, st := range cc.Body {
			w.walk(st, sc)
		}
		sc.held = saved
	}
}

func (w *lockWalker) handleSend(s *ast.SendStmt, sc *lockScope) {
	class := fieldClassOf(w.info, s.Chan)
	if class == "" || !w.cfg.semaphores[class] {
		return
	}
	if w.cb.acquire != nil {
		w.cb.acquire(sc.held, class, s.Pos(), sc.inGo)
	}
	sc.held = append(sc.held, heldLock{Class: class, Pos: s.Pos()})
}

// handleRecv processes `<-ch`: a semaphore receive releases a slot; a
// latch receive is a wait event unless the enclosing select has a
// default clause (a non-blocking readiness poll).
func (w *lockWalker) handleRecv(u *ast.UnaryExpr, sc *lockScope, selectHasDefault bool) {
	w.walk(u.X, sc)
	class := fieldClassOf(w.info, u.X)
	if class == "" {
		return
	}
	switch {
	case w.cfg.semaphores[class]:
		sc.release(class)
	case w.cfg.latches[class] && !selectHasDefault:
		if w.cb.wait != nil {
			w.cb.wait(sc.held, class, u.Pos(), sc.inGo)
		}
	}
}

// ---------------------------------------------------------------------
// Call graph.

// callGraph accumulates caller→callee edges across every analyzed
// package of a run, plus the raw material for devirtualizing interface
// calls at Finish time: the named types seen and the interface methods
// invoked.
type callGraph struct {
	edges      map[string]map[string]bool // FuncString -> set of callee FuncStrings
	ifaceCalls map[string]*types.Func     // callee FuncString -> interface method
	named      map[string]*types.Named    // type name -> named types seen
}

func newCallGraph() *callGraph {
	return &callGraph{
		edges:      map[string]map[string]bool{},
		ifaceCalls: map[string]*types.Func{},
		named:      map[string]*types.Named{},
	}
}

// addTypes collects the package's named types for devirtualization.
func (g *callGraph) addTypes(pass *Pass) {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				g.named[named.Obj().Pkg().Path()+"."+named.Obj().Name()] = named
			}
		}
	}
}

// addPackage records every call edge of the package and collects its
// named types for later devirtualization.
func (g *callGraph) addPackage(pass *Pass) {
	g.addTypes(pass)
	WalkFuncs(pass, func(decl *ast.FuncDecl, fname string) {
		if decl.Body == nil {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := Callee(pass.Info, call); fn != nil {
				g.addEdge(fname, fn)
			}
			return true
		})
	})
}

func (g *callGraph) addEdge(caller string, callee *types.Func) {
	name := FuncString(callee)
	if g.edges[caller] == nil {
		g.edges[caller] = map[string]bool{}
	}
	g.edges[caller][name] = true
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			g.ifaceCalls[name] = callee
		}
	}
}

// devirtualize returns, for every interface-method callee seen, the
// concrete methods it may dispatch to among the analyzed named types.
func (g *callGraph) devirtualize() map[string][]string {
	out := map[string][]string{}
	for name, fn := range g.ifaceCalls {
		sig := fn.Type().(*types.Signature)
		iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for _, named := range g.named {
			if types.IsInterface(named.Underlying()) {
				continue
			}
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), fn.Name())
			if m, ok := obj.(*types.Func); ok {
				out[name] = append(out[name], FuncString(m))
			}
		}
	}
	return out
}

// reachable returns the set of functions reachable from roots over the
// devirtualized edges (roots included).
func (g *callGraph) reachable(roots []string) map[string]bool {
	virt := g.devirtualize()
	seen := map[string]bool{}
	work := append([]string(nil), roots...)
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		for callee := range g.edges[fn] {
			work = append(work, callee)
			work = append(work, virt[callee]...)
		}
	}
	return seen
}
