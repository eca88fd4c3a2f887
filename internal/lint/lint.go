// Package lint is phoenix-lint: a family of static analyzers that
// mechanically enforce the logging, clock and lock disciplines the
// runtime otherwise maintains by convention (DESIGN.md Sections 9, 14).
//
// The package deliberately mirrors the shape of golang.org/x/tools'
// go/analysis — Analyzer, Pass, Diagnostic — but is built on the
// standard library only: packages are loaded with `go list -export`
// and type-checked from compiler export data (see load.go), so the
// checker needs no dependencies beyond the Go toolchain itself.
//
// Analyzers:
//
//	forcesite    — wal append/force entry points may only be called
//	               from the blessed accounting chokepoints in core
//	wallclock    — no direct wall-clock reads in the simulation-clocked
//	               packages (core, wal, bench, recsvc)
//	exhaustive   — switches over runtime enums cover every member or
//	               carry an explicit default
//	lockorder    — nested lock acquisitions follow lockorder.order and
//	               form no cycle; a device sync or a sleep acquires
//	               its device rung, so no lock ranked below it (the
//	               log, process and engine mutexes) is held across one
//	poollife     — pooled buffers are freed exactly once and never
//	               escape; scan payloads never outlive their window
//	shutdownpath — every goroutine is joined from a shutdown path and
//	               every latch is opened idempotently on one
//	droppederr   — durability-path errors are handled, not discarded
//
// Analyzers report everything they find. Deliberate exceptions live in
// one commented allowlist file (phoenix-lint.allow), not in
// suppressions scattered through code, and the Runner applies it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one reported violation. Position is resolved against
// the run's shared FileSet so diagnostics from different packages (and
// from cross-package Finish hooks) sort and print uniformly. Fn, when
// known, is the enclosing function in FuncString spelling — the unit
// allowlist entries are written against.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Fn       string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer *Analyzer
	report   func(Diagnostic)
}

// ReportfFn records a diagnostic at pos attributed to the enclosing
// function fn (FuncString spelling, "" when unknown).
func (p *Pass) ReportfFn(pos token.Pos, fn string, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Fn:       fn,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check. Run is invoked once per package; the
// optional Finish hook runs after every package of the run has been
// analyzed, for checks that need whole-repo state (lockorder's cycle
// and rank checks, shutdownpath's joins). Analyzers carrying cross-package state are built
// fresh per run by their constructor, so a Runner must not be reused.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
	// Finish, when non-nil, reports diagnostics that could only be
	// decided after all packages were seen. The Analyzer field of the
	// reported Diagnostic is filled in by the Runner.
	Finish func(report func(Diagnostic))
}

// Runner applies a set of analyzers to a set of loaded packages, and
// the allowlist to what they report.
type Runner struct {
	Analyzers []*Analyzer
	// Allow lists the deliberate exceptions. Nil allows nothing.
	Allow *Allowlist
}

// Run analyzes every package with every analyzer and runs the Finish
// hooks. It drops each diagnostic whose (analyzer, Fn) pair the
// allowlist lists and returns the rest sorted by position, together
// with the entries that matched no diagnostic: dead entries, whose
// exception no longer exists in the code.
func (r *Runner) Run(pkgs []*Package) (diags []Diagnostic, dead []string, err error) {
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range pkgs {
		for _, a := range r.Analyzers {
			pass := &Pass{
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				analyzer: a,
				report:   report,
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range r.Analyzers {
		if a.Finish == nil {
			continue
		}
		name := a.Name
		a.Finish(func(d Diagnostic) {
			d.Analyzer = name
			diags = append(diags, d)
		})
	}
	used := map[[2]string]bool{}
	kept := diags[:0]
	for _, d := range diags {
		if r.Allow.Allowed(d.Analyzer, d.Fn) {
			used[[2]string{d.Analyzer, d.Fn}] = true
			continue
		}
		kept = append(kept, d)
	}
	diags = kept
	for _, e := range r.Allow.Entries() {
		if !used[e] {
			dead = append(dead, e[0]+" "+e[1])
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, dead, nil
}

// FuncString names a function object the way the allowlist file spells
// functions: "pkgpath.Func" for package functions and
// "(recvtype).Method" — e.g. "(*repro/internal/wal.Log).syncLocked" —
// for methods.
func FuncString(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		return fmt.Sprintf("(%s).%s", types.TypeString(sig.Recv().Type(), nil), fn.Name())
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

// WalkFuncs visits every function declaration of the package, passing
// its allowlist name. Code inside function literals is attributed to
// the enclosing declaration — exceptions are granted per named
// function, never per closure.
func WalkFuncs(pass *Pass, visit func(decl *ast.FuncDecl, name string)) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			visit(fd, FuncString(fn))
		}
	}
}

// Callee resolves the function or method a call expression invokes,
// or nil for calls through function values, conversions and builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// CalleeString is Callee rendered in allowlist spelling, or "".
func CalleeString(info *types.Info, call *ast.CallExpr) string {
	fn := Callee(info, call)
	if fn == nil {
		return ""
	}
	return FuncString(fn)
}
