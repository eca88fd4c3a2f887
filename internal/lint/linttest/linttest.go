// Package linttest is an analysistest-style harness for the
// phoenix-lint analyzers: fixture packages live under testdata (where
// the go tool ignores them), carry deliberately seeded violations,
// and annotate the lines where diagnostics are expected with
//
//	// want "regexp" "another regexp"
//
// comments. Run loads the fixture, applies the analyzers and the
// fixture's allowlist, and fails the test on any unmatched
// expectation, unexpected diagnostic or dead allowlist entry.
//
// With PHOENIX_LINT_PRINT=1 in the environment, Run additionally
// prints every diagnostic the analyzers produced for the fixture —
// `make lint-fix-fixtures` uses this to regenerate want comments
// after an analyzer's message format changes.
package linttest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads the fixture package rooted at dir, type-checked under
// importPath, runs the analyzers with allow (nil allows nothing), and
// diffs the diagnostics against the fixture's want comments.
func Run(t *testing.T, dir, importPath string, allow *lint.Allowlist, analyzers ...*lint.Analyzer) {
	t.Helper()
	pkg, err := lint.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	runner := &lint.Runner{Analyzers: analyzers, Allow: allow}
	diags, dead, err := runner.Run([]*lint.Package{pkg})
	if err != nil {
		t.Fatalf("run analyzers on %s: %v", dir, err)
	}
	for _, e := range dead {
		t.Errorf("fixture allowlist entry %q matches no diagnostic", e)
	}
	if os.Getenv("PHOENIX_LINT_PRINT") != "" {
		for _, d := range diags {
			t.Logf("GOT %s", d)
		}
	}

	wants, err := parseWants(pkg)
	if err != nil {
		t.Fatalf("parse want comments in %s: %v", dir, err)
	}

	for _, d := range diags {
		if w := match(wants, d); w == nil {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none",
				filepath.Base(w.file), w.line, w.re)
		}
	}
}

// match consumes (at most once) a want on the diagnostic's line whose
// regexp matches the message.
func match(wants []*want, d lint.Diagnostic) *want {
	for _, w := range wants {
		if w.matched || w.line != d.Pos.Line || w.file != d.Pos.Filename {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.matched = true
			return w
		}
	}
	return nil
}

var wantRe = regexp.MustCompile(`// want (.*)$`)

// parseWants extracts the want expectations from every comment of the
// fixture. Each expectation is a Go-quoted regexp; several may share a
// line.
func parseWants(pkg *lint.Package) ([]*want, error) {
	var wants []*want
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(m[1])
				for rest != "" {
					if !strings.HasPrefix(rest, `"`) && !strings.HasPrefix(rest, "`") {
						return nil, fmt.Errorf("%s: want expectations must be quoted regexps, got %q", pos, rest)
					}
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						return nil, fmt.Errorf("%s: bad quoted regexp %q: %v", pos, rest, err)
					}
					expr, err := strconv.Unquote(q)
					if err != nil {
						return nil, fmt.Errorf("%s: unquote %q: %v", pos, q, err)
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						return nil, fmt.Errorf("%s: compile %q: %v", pos, expr, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}
	return wants, nil
}
