package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// enumModule is the import path of the module whose enum types the
// exhaustive analyzer checks.
const enumModule = "repro"

// NewExhaustive returns the exhaustive analyzer: a switch over one of
// the runtime's enums (EventKind, the wal record types, the component
// kinds, ...) must either cover every declared member or carry an
// explicit default — a bare partial switch silently drops newly added
// members, the regression class the defensive String() defaults exist
// for.
//
// An enum is any named integer or string type declared in the module
// with at least two package-level constants of exactly
// that type; the members are gathered from the type's own package and
// from the switching package (the wal record types are declared in
// core, not wal). Members whose name ends in "count" are bound
// sentinels (eventKindCount) and are not required.
func NewExhaustive() *Analyzer {
	return &Analyzer{
		Name: "exhaustive",
		Doc:  "switches over runtime enums cover every member or carry an explicit default",
		Run: func(pass *Pass) error {
			WalkFuncs(pass, func(decl *ast.FuncDecl, fname string) {
				ast.Inspect(decl, func(n ast.Node) bool {
					sw, ok := n.(*ast.SwitchStmt)
					if !ok || sw.Tag == nil {
						return true
					}
					checkSwitch(pass, sw, fname)
					return true
				})
			})
			return nil
		},
	}
}

func checkSwitch(pass *Pass, sw *ast.SwitchStmt, fname string) {
	tv, ok := pass.Info.Types[sw.Tag]
	if !ok {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !underModule(obj.Pkg().Path()) {
		return
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&(types.IsInteger|types.IsString) == 0 {
		return
	}
	members := enumMembers(named, obj.Pkg(), pass.Pkg)
	if len(members) < 2 {
		return
	}

	covered := map[string]bool{}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // explicit default: the author owns the remainder
		}
		for _, e := range cc.List {
			if v := pass.Info.Types[e].Value; v != nil {
				covered[v.ExactString()] = true
			}
		}
	}

	var missing []string
	for _, m := range members {
		if !covered[m.key] {
			missing = append(missing, m.name)
		}
	}
	if len(missing) == 0 {
		return
	}
	pass.ReportfFn(sw.Pos(), fname,
		"switch over %s is missing cases %s and has no default; add the cases or an explicit default",
		types.TypeString(named, nil), strings.Join(missing, ", "))
}

type enumMember struct {
	name string
	key  string // constant.Value.ExactString()
	val  constant.Value
}

// enumMembers gathers the package-level constants of exactly type
// named, deduplicated by value, from the given package scopes. They
// come back in declaration (value) order so diagnostics read the way
// the enum is written.
func enumMembers(named *types.Named, scopes ...*types.Package) []enumMember {
	seen := map[string]bool{}
	var members []enumMember
	for _, pkg := range scopes {
		if pkg == nil {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok || name == "_" {
				continue
			}
			if strings.HasSuffix(strings.ToLower(name), "count") {
				continue // bound sentinel (eventKindCount)
			}
			if !sameNamed(c.Type(), named) {
				continue
			}
			key := c.Val().ExactString()
			if seen[key] {
				continue
			}
			seen[key] = true
			members = append(members, enumMember{name: name, key: key, val: c.Val()})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		a, b := members[i].val, members[j].val
		if a.Kind() == b.Kind() && a.Kind() != constant.Unknown {
			return constant.Compare(a, token.LSS, b)
		}
		return members[i].name < members[j].name
	})
	return members
}

// sameNamed reports whether t is the same named type as named,
// comparing by declaring package path and name so that a type seen
// once from source and once through export data still matches.
func sameNamed(t types.Type, named *types.Named) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	a, b := n.Obj(), named.Obj()
	if a.Pkg() == nil || b.Pkg() == nil {
		return a == b
	}
	return a.Name() == b.Name() && a.Pkg().Path() == b.Pkg().Path()
}

func underModule(path string) bool {
	return path == enumModule || strings.HasPrefix(path, enumModule+"/")
}
