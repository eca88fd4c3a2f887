package phoenix_test

import (
	"encoding/json"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The documents whose code names are held to the module.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// TestDocsNameLiveCode: every backticked span of README.md, DESIGN.md
// and EXPERIMENTS.md (outside fenced blocks) that has the shape of a
// code name must name something the module has:
//
//   - `pkg.Name`, `Type.Member`, `Type.Field.Field` and `(*T).M` resolve
//     against declarations parsed with go/parser — the module's, and the
//     standard library's for a package the module imports — where the
//     last name may list alternatives (`Log.Mark/Stable`), a call's
//     arguments or a composite literal's braces may follow, and a
//     metric of internal/obs/names.go or of BENCHMARK.json is a name too;
//   - `TestX`, `BenchmarkX` and `FuzzX` name a function of a _test.go
//     file (a trailing `*` makes the name a prefix);
//   - `make target` names a target of the Makefile;
//   - a bare identifier in mixed case (`syncTarget`) is declared in the
//     module, as a function, type, value, method or field.
//
// DESIGN.md's "Deleted mechanisms" table is the one place a name of
// deleted code may stand: a row is one line of four columns, and a
// name in its first column must NOT resolve, so the row says what
// actually went.
func TestDocsNameLiveCode(t *testing.T) {
	ix, err := buildIndex()
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range docFiles {
		text := readDoc(t, file)
		table := deletedTable(t, file, text)
		for _, s := range codeSpans(text) {
			checked, ok := ix.check(s.text)
			if !checked {
				continue
			}
			if table.mechanism(s) {
				if ok {
					t.Errorf("%s:%d: `%s` in the deleted-mechanisms table still resolves: name what went", file, s.line, s.text)
				}
				continue
			}
			if !ok {
				t.Errorf("%s:%d: `%s` names nothing in the module", file, s.line, s.text)
			}
		}
	}
}

// TestDesignCitationsResolve: every "DESIGN §N" or "DESIGN.md §N"
// ("Section N", "Sections N, M") in the module's Go files, the
// Makefile, the lint allowlist and lock order, README.md,
// EXPERIMENTS.md and ROADMAP.md, and every "§N" in DESIGN.md itself,
// names a numbered heading of DESIGN.md; a quoted title right after it
// ("§8 \"walk\"") must be a heading inside that section ("…" stands
// for any text).
func TestDesignCitationsResolve(t *testing.T) {
	headings := designHeadings(readDoc(t, "DESIGN.md"))
	files := []string{"Makefile", "internal/lint/phoenix-lint.allow", "internal/lint/lockorder.order", "README.md", "EXPERIMENTS.md", "ROADMAP.md"}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(file string, text string, re *regexp.Regexp) {
		for _, m := range re.FindAllStringSubmatchIndex(text, -1) {
			line := 1 + strings.Count(text[:m[0]], "\n")
			cite := strings.Join(strings.Fields(text[m[0]:m[1]]), " ")
			nums := sectionRe.FindAllString(text[m[2]:m[3]], -1)
			for _, n := range nums {
				titles, ok := headings[n]
				if !ok {
					t.Errorf("%s:%d: %s: DESIGN.md has no section %s", file, line, cite, n)
					continue
				}
				if m[4] < 0 || len(nums) > 1 {
					continue
				}
				if title := text[m[4]:m[5]]; !hasTitle(titles, title) {
					t.Errorf("%s:%d: %s: DESIGN.md §%s has no heading %q", file, line, cite, n, title)
				}
			}
		}
	}
	for _, file := range files {
		check(file, readDoc(t, file), citeRe)
	}
	check("DESIGN.md", readDoc(t, "DESIGN.md"), selfCiteRe)
}

var (
	// citeRe matches a citation of DESIGN.md from another file; the
	// separators may include the comment markers of a wrapped Go or
	// Makefile comment.
	// Group 1 holds the section numbers, group 2 a quoted title.
	citeRe = regexp.MustCompile(`DESIGN(?:\.md)?(?:'s)?[\s/#]+(?:§|Sections?[\s/#]+)\s*(\d+(?:\.\d+)?(?:(?:[\s/#]*(?:,|and)[\s/#]*§\s*\d+(?:\.\d+)?)*|(?:[\s/#]*(?:,|and)[\s/#]*\d+(?:\.\d+)?)*))(?:[\s/#]*[,(]?[\s/#]*"([^"\n]+)")?`)
	// selfCiteRe matches DESIGN.md's own cross-references, grouped alike.
	selfCiteRe = regexp.MustCompile(`§\s*(\d+(?:\.\d+)?)(?:\s*[,(]?\s*"([^"\n]+)")?`)
	sectionRe  = regexp.MustCompile(`\d+(?:\.\d+)?`)
)

// designHeadings maps each section number of DESIGN.md ("8", "14.1")
// to the titles of the headings inside it, its own included.
func designHeadings(text string) map[string][]string {
	numbered := regexp.MustCompile(`^(#{2,4}) (\d+(?:\.\d+)?)\.? (.*)$`)
	other := regexp.MustCompile(`^#{3,4} (.*)$`)
	out := map[string][]string{}
	var sec, sub string
	for _, line := range strings.Split(text, "\n") {
		if m := numbered.FindStringSubmatch(line); m != nil {
			if m[1] == "##" {
				sec, sub = m[2], ""
			} else {
				sub = m[2]
				out[sec] = append(out[sec], m[3])
			}
			out[m[2]] = append(out[m[2]], m[3])
			continue
		}
		if strings.HasPrefix(line, "## ") {
			sec, sub = "", ""
			continue
		}
		if m := other.FindStringSubmatch(line); m != nil && sec != "" {
			out[sec] = append(out[sec], m[1])
			if sub != "" {
				out[sub] = append(out[sub], m[1])
			}
		}
	}
	return out
}

func hasTitle(titles []string, title string) bool {
	parts := strings.Split(title, "…")
	for i := range parts {
		parts[i] = regexp.QuoteMeta(strings.TrimSpace(parts[i]))
	}
	re := regexp.MustCompile(`^` + strings.Join(parts, `.*`) + `$`)
	for _, h := range titles {
		if re.MatchString(h) {
			return true
		}
	}
	return false
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// span is one backticked span of a document.
type span struct {
	text      string // whitespace runs folded to one space
	line, col int    // of the opening backtick; col is a byte offset in its line
}

// codeSpans returns the backticked spans of a Markdown text, skipping
// fenced blocks.
func codeSpans(text string) []span {
	lines := strings.Split(text, "\n")
	fenced := false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	text = strings.Join(lines, "\n")
	var out []span
	for _, m := range spanRe.FindAllStringSubmatchIndex(text, -1) {
		before := text[:m[0]]
		out = append(out, span{
			text: strings.Join(strings.Fields(text[m[2]:m[3]]), " "),
			line: 1 + strings.Count(before, "\n"),
			col:  m[0] - (strings.LastIndex(before, "\n") + 1),
		})
	}
	return out
}

// deletedRows locates the first column of every row of DESIGN.md's
// "Deleted mechanisms" table.
type deletedRows map[int][2]int // line -> [start, end) of its first cell

func (d deletedRows) mechanism(s span) bool {
	c, ok := d[s.line]
	return ok && s.col >= c[0] && s.col < c[1]
}

func deletedTable(t *testing.T, file, text string) deletedRows {
	t.Helper()
	rows := deletedRows{}
	if file != "DESIGN.md" {
		return rows
	}
	in, header := false, true
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "## ") {
			in = deletedRe.MatchString(line)
			if in && len(rows) > 0 {
				t.Errorf("%s:%d: a second deleted-mechanisms section", file, i+1)
			}
			continue
		}
		if !in || !strings.HasPrefix(line, "|") {
			continue
		}
		if header || strings.HasPrefix(line, "|---") {
			header = false
			continue
		}
		cells := splitRow(line)
		if len(cells) != 4 {
			t.Errorf("%s:%d: a deleted-mechanisms row has %d columns, want 4 (mechanism, PR, reason, what must be shown before it returns)", file, i+1, len(cells))
			continue
		}
		rows[i+1] = [2]int{1, 1 + len(cells[0])}
	}
	if header {
		t.Errorf("%s: no \"Deleted mechanisms\" table", file)
	}
	return rows
}

// splitRow splits a table row on the pipes outside backticks.
func splitRow(line string) []string {
	var cells []string
	code, start := false, 1
	for i := 1; i < len(line); i++ {
		switch line[i] {
		case '`':
			code = !code
		case '|':
			if !code {
				cells = append(cells, line[start:i])
				start = i + 1
			}
		}
	}
	return cells
}

// declIndex is what the module declares, read with go/parser.
type declIndex struct {
	pkgs    map[string][]*pkgDecls // module packages by name
	byPath  map[string]*pkgDecls   // every loaded package by import path
	std     map[string][]string    // name -> import paths the module imports from outside it
	types   map[string][]*typeDecl // module types by name
	names   map[string]bool        // every name the module declares
	tests   map[string]bool        // Test, Benchmark and Fuzz functions of _test.go files
	targets map[string]bool        // Makefile targets
	metrics map[string]bool        // obs's catalogue and BENCHMARK.json's metrics
	goroot  string                 // "" when the standard library's source is not at hand
	fset    *token.FileSet
}

type pkgDecls struct {
	path  string
	decls map[string]bool
	types map[string]*typeDecl
}

type typeRef struct{ path, name string }

type typeDecl struct {
	alias   *typeRef
	members map[string]*typeRef // fields with their named type, methods with none
	embeds  []typeRef
}

func buildIndex() (*declIndex, error) {
	ix := &declIndex{
		pkgs: map[string][]*pkgDecls{}, byPath: map[string]*pkgDecls{}, std: map[string][]string{},
		types: map[string][]*typeDecl{}, names: map[string]bool{}, tests: map[string]bool{},
		targets: map[string]bool{}, metrics: map[string]bool{}, fset: token.NewFileSet(),
	}
	if src := filepath.Join(build.Default.GOROOT, "src"); dirExists(src) {
		ix.goroot = build.Default.GOROOT
	}
	gomod, err := os.ReadFile("go.mod")
	if err != nil {
		return nil, err
	}
	module := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(gomod), "\n", 2)[0], "module"))
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(ix.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imp := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			imp += "/" + dir
		}
		p := ix.pkg(imp)
		name := strings.TrimSuffix(f.Name.Name, "_test")
		if !slices.Contains(ix.pkgs[name], p) {
			ix.pkgs[name] = append(ix.pkgs[name], p)
		}
		ix.addFile(p, f, module, strings.HasSuffix(path, "_test.go"), false)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range ix.byPath {
		for name, td := range p.types {
			ix.types[name] = append(ix.types[name], td)
		}
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		return nil, err
	}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(string(makefile), -1) {
		ix.targets[m[1]] = true
	}
	// Metric names: the string constants of names.go, and the metrics
	// BENCHMARK.json declares.
	f, err := parser.ParseFile(token.NewFileSet(), "internal/obs/names.go", nil, 0)
	if err != nil {
		return nil, err
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok {
			for _, v := range vs.Values {
				if lit, ok := v.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					s, _ := strconv.Unquote(lit.Value)
					ix.metrics[s] = true
				}
			}
		}
		return true
	})
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return nil, err
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		ix.metrics[m.Name] = true
	}
	return ix, nil
}

func dirExists(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

func (ix *declIndex) pkg(path string) *pkgDecls {
	p := ix.byPath[path]
	if p == nil {
		p = &pkgDecls{path: path, decls: map[string]bool{}, types: map[string]*typeDecl{}}
		ix.byPath[path] = p
	}
	return p
}

func (p *pkgDecls) typ(name string) *typeDecl {
	td := p.types[name]
	if td == nil {
		td = &typeDecl{members: map[string]*typeRef{}}
		p.types[name] = td
	}
	return td
}

// addFile records a file's declarations in p. Names of the standard
// library stay out of the module's name sets.
func (ix *declIndex) addFile(p *pkgDecls, f *ast.File, module string, test, std bool) {
	imports := map[string]string{}
	for _, is := range f.Imports {
		path, _ := strconv.Unquote(is.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if is.Name != nil {
			name = is.Name.Name
		}
		imports[name] = path
		if !std && path != module && !strings.HasPrefix(path, module+"/") && !slices.Contains(ix.std[name], path) {
			ix.std[name] = append(ix.std[name], path)
		}
	}
	declare := func(name string) {
		if !std {
			ix.names[name] = true
		}
	}
	ref := func(e ast.Expr) *typeRef {
		for {
			switch x := e.(type) {
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.IndexListExpr:
				e = x.X
			case *ast.Ident:
				return &typeRef{p.path, x.Name}
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
					return &typeRef{imports[id.Name], x.Sel.Name}
				}
				return nil
			default:
				return nil
			}
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			declare(d.Name.Name)
			if d.Recv == nil {
				p.decls[d.Name.Name] = true
				if test && testFuncRe.MatchString(d.Name.Name) {
					ix.tests[d.Name.Name] = true
				}
			} else if r := ref(d.Recv.List[0].Type); r != nil {
				p.typ(r.name).members[d.Name.Name] = nil
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.decls[n.Name] = true
						declare(n.Name)
					}
				case *ast.TypeSpec:
					p.decls[s.Name.Name] = true
					declare(s.Name.Name)
					td := p.typ(s.Name.Name)
					if s.Assign != 0 {
						td.alias = ref(s.Type)
						continue
					}
					var fields *ast.FieldList
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						r := ref(fl.Type)
						if len(fl.Names) == 0 {
							if r != nil {
								td.embeds = append(td.embeds, *r)
								td.members[r.name] = r
								declare(r.name)
							}
							continue
						}
						if _, isFunc := fl.Type.(*ast.FuncType); isFunc {
							r = nil // an interface method
						}
						for _, n := range fl.Names {
							td.members[n.Name] = r
							declare(n.Name)
						}
					}
				}
			}
		}
	}
}

// stdPkg loads a standard-library package from GOROOT's source on first
// use; nil when it is not there.
func (ix *declIndex) stdPkg(path string) *pkgDecls {
	if p, ok := ix.byPath[path]; ok {
		return p
	}
	if ix.goroot == "" {
		return nil
	}
	dir := filepath.Join(ix.goroot, "src", filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	p := ix.pkg(path)
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(ix.fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err == nil {
			ix.addFile(p, f, "", false, true)
		}
	}
	return p
}

func (ix *declIndex) typeOf(r typeRef) *typeDecl {
	p, ok := ix.byPath[r.path]
	if !ok {
		p = ix.stdPkg(r.path)
	}
	if p == nil {
		return nil
	}
	return p.types[r.name]
}

// member finds a field or method of td, through aliases and embedded
// types.
func (ix *declIndex) member(td *typeDecl, name string, depth int) (*typeRef, bool) {
	if td == nil || depth > 8 {
		return nil, false
	}
	if td.alias != nil {
		return ix.member(ix.typeOf(*td.alias), name, depth+1)
	}
	if r, ok := td.members[name]; ok {
		return r, true
	}
	for _, e := range td.embeds {
		if r, ok := ix.member(ix.typeOf(e), name, depth+1); ok {
			return r, true
		}
	}
	return nil, false
}

func (ix *declIndex) members(td *typeDecl, parts []string) bool {
	for i, part := range parts {
		r, ok := ix.member(td, part, 0)
		if !ok {
			return false
		}
		if i == len(parts)-1 {
			return true
		}
		if r == nil {
			return false
		}
		td = ix.typeOf(*r)
	}
	return true
}

func (ix *declIndex) in(p *pkgDecls, parts []string) bool {
	if !p.decls[parts[0]] {
		return false
	}
	return len(parts) == 1 || ix.members(p.types[parts[0]], parts[1:])
}

// dotted resolves a.b.c: a package and what it declares, or a type and
// its members.
func (ix *declIndex) dotted(parts []string) bool {
	for _, p := range ix.pkgs[parts[0]] {
		if ix.in(p, parts[1:]) {
			return true
		}
	}
	for _, path := range ix.std[parts[0]] {
		p := ix.stdPkg(path)
		if p == nil {
			return true // no source to check against
		}
		if ix.in(p, parts[1:]) {
			return true
		}
	}
	for _, td := range ix.types[parts[0]] {
		if ix.members(td, parts[1:]) {
			return true
		}
	}
	return false
}

var (
	makeRe    = regexp.MustCompile(`^make(?: -\S+)* ([a-z][a-z0-9-]*)$`)
	testRe    = regexp.MustCompile(`^(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?$`)
	argsRe    = regexp.MustCompile(`^(.+[\w)])(?:\([^()]*\)|\{[^{}]*\})$`)
	recvRe    = regexp.MustCompile(`^\(\*?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)\)\.([A-Za-z_]\w*(?:/[A-Za-z_]\w*)*)$`)
	dottedRe  = regexp.MustCompile(`^[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+(?:/[A-Za-z_]\w*)*$`)
	identRe   = regexp.MustCompile(`^[A-Za-z_]\w*$`)
	fileExtRe = regexp.MustCompile(`\.(go|md|json|yml|mod|order|allow|meta|tmp|seg|log|prof|test|txt)$`)

	testFuncRe = regexp.MustCompile(`^(Test|Benchmark|Fuzz)`)
	deletedRe  = regexp.MustCompile(`^## \d+\. Deleted mechanisms$`)
	spanRe     = regexp.MustCompile("`([^`]+)`")
)

// check reports whether a span has the shape of a code name, and if so
// whether the module has it.
func (ix *declIndex) check(s string) (checked, ok bool) {
	if m := makeRe.FindStringSubmatch(s); m != nil {
		return true, ix.targets[m[1]]
	}
	if testRe.MatchString(s) {
		if prefix, ok := strings.CutSuffix(s, "*"); ok {
			for name := range ix.tests {
				if strings.HasPrefix(name, prefix) {
					return true, true
				}
			}
			return true, false
		}
		return true, ix.tests[s]
	}
	if m := argsRe.FindStringSubmatch(s); m != nil {
		s = m[1]
	}
	if m := recvRe.FindStringSubmatch(s); m != nil {
		for _, alt := range strings.Split(m[2], "/") {
			if !ix.dotted(append(strings.Split(m[1], "."), alt)) {
				return true, false
			}
		}
		return true, true
	}
	if dottedRe.MatchString(s) {
		if fileExtRe.MatchString(s) {
			return false, false
		}
		dot := strings.LastIndex(s, ".")
		for _, alt := range strings.Split(s[dot+1:], "/") {
			name := s[:dot+1] + alt
			if !ix.metrics[name] && !ix.dotted(strings.Split(name, ".")) {
				return true, false
			}
		}
		return true, true
	}
	if identRe.MatchString(s) && strings.ToLower(s) != s && strings.ToUpper(s) != s {
		return true, ix.names[s]
	}
	return false, false
}
