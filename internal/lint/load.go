package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package ready for analysis. All packages
// of a Load share one FileSet, so positions are comparable across the
// whole run.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	Dir        string
	ImportPath string
	Export     string
	DepOnly    bool
	GoFiles    []string
}

// goList runs `go list -export -deps -json` for patterns in dir and
// returns the decoded package stream. -export compiles (or reuses from
// the build cache) every package's export data, which is what lets the
// type checker resolve imports without golang.org/x/tools. Results are
// memoized for the life of the process, so a test binary lists the
// module once, not once per fixture.
func goList(dir string, patterns []string) ([]listedPkg, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	key := abs + "\x00" + strings.Join(patterns, "\x00")
	listMu.Lock()
	defer listMu.Unlock()
	if pkgs, ok := listMemo[key]; ok {
		return pkgs, nil
	}
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Export,Dir,GoFiles,DepOnly",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decode: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	listMemo[key] = pkgs
	return pkgs, nil
}

var (
	listMu   sync.Mutex
	listMemo = map[string][]listedPkg{}
)

// loader type-checks packages from parsed source, resolving every
// import from compiler export data.
type loader struct {
	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	imp     types.Importer
}

func newLoader(exports map[string]string) *loader {
	l := &loader{fset: token.NewFileSet(), exports: exports}
	l.imp = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for import %q", path)
		}
		return os.Open(f)
	})
	return l
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// check parses files and type-checks them as package path.
func (l *loader) check(path, dir string, fileNames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// Load type-checks the packages matching the `go list` patterns,
// resolved relative to dir. Only the matched packages are analyzed;
// their dependencies are consumed as export data. Test files are not
// included — the disciplines bind production code.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var targets []listedPkg
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	l := newLoader(exports)
	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		pkg, err := l.check(t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir type-checks all .go files of one directory as a package with
// the given import path. It exists for analysistest-style fixtures,
// which live under testdata where the go tool will not list them; the
// fixtures may import anything in the repo module's dependency
// closure (the module's own packages included), resolved from export
// data built at the enclosing module root.
func LoadDir(dir, importPath string) (*Package, error) {
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	listed, err := goList(root, []string{"./..."})
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	sort.Strings(names)
	return newLoader(exports).check(importPath, dir, names)
}

// moduleRoot walks up from dir to the directory holding go.mod.
func moduleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}
