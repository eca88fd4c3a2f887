package lint

import (
	_ "embed"
	"fmt"
	"sort"
	"strings"
)

// Allowlist is the set of deliberate exceptions to the analyzers: a
// small, commented file instead of suppressions scattered through the
// code. Each entry names an analyzer and a function (in FuncString
// spelling) and must carry a trailing "# why" comment — an exception
// nobody can explain is not an exception. The Runner drops every
// diagnostic an entry's analyzer attributes to its function; for
// forcesite that makes the listed functions the *blessed* append/force
// sites — the only ones allowed to call into the wal entry points.
type Allowlist struct {
	entries map[[2]string]bool // (analyzer, function)
}

//go:embed phoenix-lint.allow
var defaultAllowSrc []byte

// defaultAllowlist parses the allowlist compiled into the binary
// (internal/lint/phoenix-lint.allow).
func defaultAllowlist() *Allowlist {
	a, err := ParseAllowlist("phoenix-lint.allow (embedded)", defaultAllowSrc)
	if err != nil {
		// The embedded file is validated by the package's own tests;
		// reaching this means the binary was built from a broken tree.
		panic(err)
	}
	return a
}

// ParseAllowlist parses allowlist source. Lines are
//
//	<analyzer> <function>   # why this exception is deliberate
//
// Blank lines and full-line # comments are skipped. The function field
// uses FuncString spelling: pkgpath.Func, or (pkgpath.Recv).Method /
// (*pkgpath.Recv).Method for methods.
func ParseAllowlist(name string, src []byte) (*Allowlist, error) {
	a := &Allowlist{entries: map[[2]string]bool{}}
	for i, line := range strings.Split(string(src), "\n") {
		text, why, _ := strings.Cut(line, "#")
		text = strings.TrimSpace(text)
		why = strings.TrimSpace(why)
		if text == "" {
			continue
		}
		analyzer, fn, ok := strings.Cut(text, " ")
		fn = strings.TrimSpace(fn)
		if !ok || fn == "" || strings.ContainsAny(fn, " \t") {
			return nil, fmt.Errorf("%s:%d: want \"<analyzer> <function> # why\", got %q", name, i+1, line)
		}
		if why == "" {
			return nil, fmt.Errorf("%s:%d: allowlist entry for %s lacks a '# why' comment", name, i+1, fn)
		}
		key := [2]string{analyzer, fn}
		if a.entries[key] {
			return nil, fmt.Errorf("%s:%d: duplicate entry %s %s", name, i+1, analyzer, fn)
		}
		a.entries[key] = true
	}
	return a, nil
}

// Allowed reports whether fn is listed for analyzer.
func (a *Allowlist) Allowed(analyzer, fn string) bool {
	return a != nil && a.entries[[2]string{analyzer, fn}]
}

// Entries returns every (analyzer, function) pair in the list, sorted.
func (a *Allowlist) Entries() [][2]string {
	if a == nil {
		return nil
	}
	out := make([][2]string, 0, len(a.entries))
	for e := range a.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
