package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolLifeConfig scopes the poollife analyzer.
type PoolLifeConfig struct {
	// Packages are the import paths checked. Empty means the buffer
	// pool's producer and consumers (msg, core, wal, transport).
	Packages []string
	// Get are the calls (FuncString spelling) whose first result is a
	// pooled buffer the caller owns. Empty means msg.GetBuf and
	// msg.EncodeCall.
	Get []string
	// Free is the call that returns a buffer to the pool. Empty means
	// msg.FreeBuf.
	Free []string
	// Payloads are struct-field classes ("pkgpath.Type.field") whose
	// bytes are valid only inside a documented window (the wal Scan /
	// Cursor.Next payload contract): they may be decoded in place but
	// never stored or returned. Empty means wal.Record.Payload.
	Payloads []string
	// Windows are the calls (FuncString spelling) whose first result is
	// a record whose payload aliases the reader's block until its next
	// read: the whole record obeys the payload rule, not just the field
	// read off it. Empty means wal's Cursor.Next and Reader.ReadAt.
	Windows []string
}

var (
	defaultPoolLifePackages = []string{
		"repro/internal/msg",
		"repro/internal/core",
		"repro/internal/wal",
		"repro/internal/transport",
	}
	defaultPoolLifeGet      = []string{"repro/internal/msg.GetBuf", "repro/internal/msg.EncodeCall"}
	defaultPoolLifeFree     = []string{"repro/internal/msg.FreeBuf"}
	defaultPoolLifePayloads = []string{"repro/internal/wal.Record.Payload"}
	defaultPoolLifeWindows  = []string{
		"(*repro/internal/wal.Cursor).Next",
		"(*repro/internal/wal.Reader).ReadAt",
	}
)

// trackKind distinguishes what a tracked variable aliases.
type trackKind int

const (
	trackPooled  trackKind = iota // owns a pooled buffer (must be freed)
	trackAlias                    // aliases a pooled buffer (sub-slice, append result)
	trackPayload                  // aliases a reused scan payload window
)

// NewPoolLife returns the poollife analyzer: a pooled scratch buffer
// (msg.GetBuf) must be freed exactly once on every path, must not be
// used after it is freed, and neither it nor a sub-slice of it may
// escape the owning function — no stores to fields, globals, channels
// or composite literals, no returns. Variables aliasing a WAL record
// payload obey the same no-escape rule: the bytes are valid only until
// the scan callback returns or the reader that produced the record —
// a cursor or a positioned reader — reads again (DESIGN.md §14), and a
// record taken straight from such a reader is tracked whole. The check
// is lexical and per-function; ownership handoffs (a producer returning
// the pooled buffer to its caller) are documented as allowlist entries.
func NewPoolLife(cfg PoolLifeConfig, allow *Allowlist) *Analyzer {
	pkgs := toSet(cfg.Packages, defaultPoolLifePackages)
	get := toSet(cfg.Get, defaultPoolLifeGet)
	free := toSet(cfg.Free, defaultPoolLifeFree)
	payloads := toSet(cfg.Payloads, defaultPoolLifePayloads)
	windows := toSet(cfg.Windows, defaultPoolLifeWindows)
	return &Analyzer{
		Name: "poollife",
		Doc:  "pooled buffers are freed exactly once and never escape; scan payloads never outlive their window",
		Run: func(pass *Pass) error {
			if !pkgs[pass.Pkg.Path()] {
				return nil
			}
			WalkFuncs(pass, func(decl *ast.FuncDecl, fname string) {
				if allow.Allowed("poollife", fname) || decl.Body == nil {
					return
				}
				checkPoolLife(pass, decl, fname, get, free, payloads, windows)
			})
			return nil
		},
	}
}

func toSet(vals, defaults []string) map[string]bool {
	if len(vals) == 0 {
		vals = defaults
	}
	set := make(map[string]bool, len(vals))
	for _, v := range vals {
		set[v] = true
	}
	return set
}

type poolCheck struct {
	pass     *Pass
	fname    string
	get      map[string]bool
	free     map[string]bool
	payloads map[string]bool
	windows  map[string]bool
	tracked  map[*types.Var]trackKind
	origin   map[*types.Var]token.Pos
}

func checkPoolLife(pass *Pass, decl *ast.FuncDecl, fname string, get, free, payloads, windows map[string]bool) {
	c := &poolCheck{
		pass: pass, fname: fname,
		get: get, free: free, payloads: payloads, windows: windows,
		tracked: map[*types.Var]trackKind{},
		origin:  map[*types.Var]token.Pos{},
	}
	// Pass 1: propagate tracking through assignments to a fixpoint
	// (alias chains like p := b[4:] need a second look).
	var assigns []*ast.AssignStmt
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			assigns = append(assigns, as)
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		for _, as := range assigns {
			if c.trackAssign(as) {
				changed = true
			}
		}
	}
	c.checkEscapes(decl.Body)
	c.checkFrees(decl.Body)
}

// localVar resolves an identifier to the local variable it names.
func (c *poolCheck) localVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := c.pass.Info.Defs[id].(*types.Var)
	if v == nil {
		v, _ = c.pass.Info.Uses[id].(*types.Var)
	}
	if v == nil || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return nil // package-level vars are escape targets, not trackees
	}
	return v
}

// classify reports what expr aliases: a tracked variable, a sub-slice
// of one, a pooled-producer call, or a payload-window field read.
func (c *poolCheck) classify(e ast.Expr) (trackKind, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v := c.localVar(e); v != nil {
			if k, ok := c.tracked[v]; ok {
				return k, true
			}
		}
	case *ast.SliceExpr:
		if k, ok := c.classify(e.X); ok {
			if k == trackPooled {
				return trackAlias, true
			}
			return k, true
		}
	case *ast.SelectorExpr:
		if sel, ok := c.pass.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if c.payloads[fieldClassOf(c.pass.Info, e)] {
				return trackPayload, true
			}
		}
	case *ast.CallExpr:
		callee := CalleeString(c.pass.Info, e)
		if c.get[callee] {
			return trackPooled, true
		}
		if c.windows[callee] {
			return trackPayload, true
		}
		// append(tracked, ...) may alias the tracked backing array.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" && len(e.Args) > 0 {
			if k, ok := c.classify(e.Args[0]); ok {
				if k == trackPayload {
					return trackPayload, true
				}
				return trackPooled, true // append chain keeps ownership (EncodeCall pattern)
			}
		}
	}
	return 0, false
}

// trackAssign records tracking for `lhs := rhs` pairs; returns whether
// anything new was learned.
func (c *poolCheck) trackAssign(as *ast.AssignStmt) bool {
	if len(as.Lhs) != len(as.Rhs) {
		// Multi-value: data, err := msg.EncodeCall(...) — the buffer (or
		// the windowed record) is the first result.
		if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
			if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
				if k, ok := c.classify(call); ok {
					return c.mark(as.Lhs[0], k, as.Pos())
				}
			}
		}
		return false
	}
	changed := false
	for i, rhs := range as.Rhs {
		k, ok := c.classify(rhs)
		if !ok {
			continue
		}
		if c.mark(as.Lhs[i], k, as.Pos()) {
			changed = true
		}
	}
	return changed
}

func (c *poolCheck) mark(lhs ast.Expr, k trackKind, pos token.Pos) bool {
	v := c.localVar(lhs)
	if v == nil {
		return false
	}
	if old, ok := c.tracked[v]; ok && old <= k {
		return false
	}
	if _, ok := c.tracked[v]; !ok {
		c.tracked[v] = k
		c.origin[v] = pos
		return true
	}
	return false
}

func (c *poolCheck) describe(k trackKind) string {
	if k == trackPayload {
		return "WAL record payload (valid only inside the scan window)"
	}
	return "pooled buffer"
}

// checkEscapes flags stores and returns that let a tracked buffer
// outlive its validity window.
func (c *poolCheck) checkEscapes(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				k, ok := c.classify(rhs)
				if !ok {
					continue
				}
				switch lhs := ast.Unparen(n.Lhs[i]).(type) {
				case *ast.Ident:
					if c.localVar(lhs) == nil && lhs.Name != "_" {
						c.escape(n.Pos(), k, "stored to package-level variable "+lhs.Name)
					}
				case *ast.SelectorExpr:
					c.escape(n.Pos(), k, "stored to field "+lhs.Sel.Name)
				case *ast.IndexExpr:
					c.escape(n.Pos(), k, "stored into a container")
				}
			}
		case *ast.SendStmt:
			if k, ok := c.classify(n.Value); ok {
				c.escape(n.Pos(), k, "sent on a channel")
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if k, ok := c.classify(res); ok {
					what := "returned"
					if _, isSlice := ast.Unparen(res).(*ast.SliceExpr); isSlice {
						what = "returned as a sub-slice"
					}
					c.escape(n.Pos(), k, what)
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				e := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if k, ok := c.classify(e); ok {
					c.escape(elt.Pos(), k, "captured in a composite literal")
				}
			}
		}
		return true
	})
}

func (c *poolCheck) escape(pos token.Pos, k trackKind, how string) {
	c.pass.ReportfFn(pos, c.fname,
		"%s %s in %s; it escapes its validity window — copy the bytes or allowlist %s in phoenix-lint.allow",
		c.describe(k), how, c.fname, c.fname)
}

// checkFrees enforces free-exactly-once for owned pooled buffers.
func (c *poolCheck) checkFrees(body *ast.BlockStmt) {
	type freeSite struct {
		pos, end token.Pos
		deferred bool
		terminal bool // lexically followed by a return in its block
	}
	// terminal marks free calls whose enclosing block returns after
	// them: an early-exit error path, after which later lexical uses
	// of the buffer are a different (live) path.
	terminal := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, st := range block.List {
			es, ok := st.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			for _, later := range block.List[i+1:] {
				if _, ok := later.(*ast.ReturnStmt); ok {
					terminal[call] = true
				}
			}
		}
		return true
	})

	frees := map[*types.Var][]freeSite{}
	returned := map[*types.Var]bool{}
	deferredCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferredCalls[n.Call] = true
		case *ast.CallExpr:
			if c.free[CalleeString(c.pass.Info, n)] && len(n.Args) > 0 {
				if v := c.localVar(n.Args[0]); v != nil {
					frees[v] = append(frees[v], freeSite{
						pos:      n.Pos(),
						end:      n.End(),
						deferred: deferredCalls[n],
						terminal: terminal[n],
					})
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if v := c.localVar(res); v != nil {
					returned[v] = true
				}
			}
		}
		return true
	})

	for v, kind := range c.tracked {
		if kind != trackPooled {
			continue
		}
		sites := frees[v]
		if len(sites) == 0 {
			if !returned[v] { // a return escape is already reported
				c.pass.ReportfFn(c.origin[v], c.fname,
					"pooled buffer %s acquired in %s is never freed; call msg.FreeBuf on every path or allowlist %s in phoenix-lint.allow",
					v.Name(), c.fname, c.fname)
			}
			continue
		}
		// Double free: a deferred free plus any lexical one, or two
		// frees where the first is not a terminal error-path free.
		deferredCount, lexical := 0, []freeSite{}
		for _, s := range sites {
			if s.deferred {
				deferredCount++
			} else {
				lexical = append(lexical, s)
			}
		}
		switch {
		case deferredCount > 0 && len(lexical) > 0:
			c.pass.ReportfFn(lexical[0].pos, c.fname,
				"pooled buffer %s freed here and again by a deferred FreeBuf in %s; free exactly once",
				v.Name(), c.fname)
		case deferredCount > 1:
			c.pass.ReportfFn(c.origin[v], c.fname,
				"pooled buffer %s has %d deferred frees in %s; free exactly once",
				v.Name(), deferredCount, c.fname)
		case len(lexical) > 1 && !lexical[0].terminal:
			c.pass.ReportfFn(lexical[1].pos, c.fname,
				"pooled buffer %s freed twice in %s; free exactly once",
				v.Name(), c.fname)
		}
		// Use after a non-terminal lexical free.
		for _, s := range lexical {
			if s.terminal {
				continue
			}
			c.flagUsesAfter(body, v, s.end)
			break
		}
	}
}

func (c *poolCheck) flagUsesAfter(body *ast.BlockStmt, v *types.Var, freePos token.Pos) {
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Pos() <= freePos {
			return true
		}
		if u, _ := c.pass.Info.Uses[id].(*types.Var); u == v {
			c.pass.ReportfFn(id.Pos(), c.fname,
				"pooled buffer %s used after FreeBuf in %s; the pool may have handed it to another goroutine",
				v.Name(), c.fname)
			return false
		}
		return true
	})
}
