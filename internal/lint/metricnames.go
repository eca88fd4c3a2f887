package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// MetricNamesConfig scopes the metricnames analyzer.
type MetricNamesConfig struct {
	// ObsPath is the import path of the metrics package. Empty means
	// "repro/internal/obs".
	ObsPath string
}

// namesFile is the file (base name) inside the metrics package that
// declares the canonical metric-name constants.
const namesFile = "names.go"

// metricMethods are the methods on metrics-package types that take a
// metric name as their first argument.
var metricMethods = map[string]bool{"Counter": true, "Histogram": true, "HistogramFor": true, "Gauge": true}

// NewMetricNames returns the metricnames analyzer: every metric name
// that reaches a Counter/Histogram resolution call must be one of the
// constants declared in internal/obs/names.go (spelled as the
// constant, not a string literal), and every declared constant must be
// resolved somewhere — no orphan declarations. The declared set and
// the use set are gathered per package and reconciled once the whole
// run has been seen, so this analyzer is only meaningful on ./...
// runs; on partial runs that never see the obs package it stays
// silent.
func NewMetricNames(cfg MetricNamesConfig) *Analyzer {
	obsPath := cfg.ObsPath
	if obsPath == "" {
		obsPath = "repro/internal/obs"
	}

	type decl struct {
		name string
		pos  token.Position
	}
	type use struct {
		constName string // "" for a plain literal
		value     string
		pos       token.Position
		fn        string
	}
	var (
		sawObs   bool
		declared = map[string]decl{} // metric name value -> declaration
		resolved = map[string]bool{} // metric name values seen at call sites
		uses     []use
	)

	return &Analyzer{
		Name: "metricnames",
		Doc:  "metric names at call sites are the names.go constants; no orphan declarations",
		Run: func(pass *Pass) error {
			if pass.Pkg.Path() == obsPath {
				sawObs = true
				collectDeclared(pass, func(name, value string, pos token.Pos) {
					declared[value] = decl{name: name, pos: pass.Fset.Position(pos)}
				})
			}
			WalkFuncs(pass, func(fd *ast.FuncDecl, fname string) {
				ast.Inspect(fd, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || len(call.Args) == 0 {
						return true
					}
					fn := Callee(pass.Info, call)
					if fn == nil || !metricMethods[fn.Name()] || !receiverIn(fn, obsPath) {
						return true
					}
					arg := ast.Unparen(call.Args[0])
					tv, ok := pass.Info.Types[arg]
					if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
						return true // dynamic name: nothing checkable
					}
					value := constant.StringVal(tv.Value)
					resolved[value] = true
					uses = append(uses, use{
						constName: obsConstName(pass, arg, obsPath),
						value:     value,
						pos:       pass.Fset.Position(arg.Pos()),
						fn:        fname,
					})
					return true
				})
			})
			return nil
		},
		Finish: func(report func(Diagnostic)) {
			if !sawObs {
				return
			}
			for _, u := range uses {
				d, ok := declared[u.value]
				switch {
				case u.constName == "" && ok:
					report(Diagnostic{Pos: u.pos, Fn: u.fn, Message: fmt.Sprintf("use the constant %s from %s/%s instead of the literal %q", d.name, obsPath, namesFile, u.value)})
				case u.constName == "" && !ok:
					report(Diagnostic{Pos: u.pos, Fn: u.fn, Message: fmt.Sprintf("metric name %q is not declared in %s/%s", u.value, obsPath, namesFile)})
				case u.constName != "" && !ok:
					report(Diagnostic{Pos: u.pos, Fn: u.fn, Message: fmt.Sprintf("constant %s (%q) is used as a metric name but not declared in %s/%s", u.constName, u.value, obsPath, namesFile)})
				}
			}
			var orphans []string
			for value := range declared {
				if !resolved[value] {
					orphans = append(orphans, value)
				}
			}
			sort.Strings(orphans)
			for _, value := range orphans {
				d := declared[value]
				report(Diagnostic{Pos: d.pos, Message: fmt.Sprintf("metric name constant %s (%q) is declared in %s but never resolved by any Counter/Histogram call — orphan declaration", d.name, value, namesFile)})
			}
		},
	}
}

// collectDeclared walks the obs package's names file and reports every
// package-level string constant it declares.
func collectDeclared(pass *Pass, emit func(name, value string, pos token.Pos)) {
	for _, file := range pass.Files {
		if filepath.Base(pass.Fset.Position(file.Pos()).Filename) != namesFile {
			continue
		}
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, id := range vs.Names {
					c, ok := pass.Info.Defs[id].(*types.Const)
					if !ok || c.Val().Kind() != constant.String {
						continue
					}
					emit(id.Name, constant.StringVal(c.Val()), id.Pos())
				}
			}
		}
	}
}

// obsConstName returns "obs.WALForces"-style spelling when arg is a
// reference to a constant declared in the obs package, else "".
func obsConstName(pass *Pass, arg ast.Expr, obsPath string) string {
	var id *ast.Ident
	switch e := arg.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	c, ok := pass.Info.Uses[id].(*types.Const)
	if !ok || c.Pkg() == nil || c.Pkg().Path() != obsPath {
		return ""
	}
	return c.Pkg().Name() + "." + c.Name()
}

// receiverIn reports whether fn is a method whose receiver type is
// declared in pkgPath.
func receiverIn(fn *types.Func, pkgPath string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == pkgPath
}
