package lint_test

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/lint"
)

// checkRepo runs the full phoenix-lint suite with the embedded
// allowlist over the real tree once, for both meta-tests.
var checkRepo = sync.OnceValues(func() (checkResult, error) {
	diags, dead, err := lint.Check("../..", "./...")
	return checkResult{diags, dead}, err
})

type checkResult struct {
	diags []lint.Diagnostic
	dead  []string
}

// TestRepoIsClean is the meta-test: the full phoenix-lint suite with
// the embedded allowlist must produce zero diagnostics over the real
// tree. Any new violation — a stray time.Now in a simulated package, a
// force call outside the blessed chokepoints, a switch that forgets a
// new record type — fails this test before it fails CI.
func TestRepoIsClean(t *testing.T) {
	res, err := checkRepo()
	if err != nil {
		t.Fatalf("phoenix-lint over the repo: %v", err)
	}
	for _, d := range res.diags {
		t.Errorf("%s", d)
	}
	if t.Failed() {
		t.Log("fix the violation or record a '# why'-commented exception in internal/lint/phoenix-lint.allow")
	}
}

// TestNoDeadAllowlistEntries checks that every embedded entry matched a
// diagnostic of the same run: an entry whose exception no longer
// exists documents nothing and must be deleted (phoenix-lint, and so
// `make lint`, fails on the same).
func TestNoDeadAllowlistEntries(t *testing.T) {
	res, err := checkRepo()
	if err != nil {
		t.Fatalf("phoenix-lint over the repo: %v", err)
	}
	for _, e := range res.dead {
		t.Errorf("dead allowlist entry %q matches no current diagnostic; delete it from phoenix-lint.allow", e)
	}
}

// TestRunnerAllowlist runs the wallclock fixture once under an
// allowlist with one live entry, one whose analyzer name is misspelled
// and one for a function the fixture does not have. The live entry
// suppresses its function's diagnostics, and the same run returns the
// other two as dead.
func TestRunnerAllowlist(t *testing.T) {
	p := fixturePrefix + "wallclock"
	allow := mustAllow(t,
		"wallclock "+p+".instrumented # live\n"+
			"walclock "+p+".instrumented # typo\n"+
			"wallclock "+p+".gone # the function no longer exists\n")
	pkg, err := lint.LoadDir("testdata/wallclock", p)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	r := &lint.Runner{
		Analyzers: []*lint.Analyzer{lint.NewWallclock(lint.WallclockConfig{Packages: []string{p}})},
		Allow:     allow,
	}
	diags, dead, err := r.Run([]*lint.Package{pkg})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		if d.Fn == p+".instrumented" {
			t.Errorf("allowlisted function still reported: %s", d)
		}
	}
	if len(diags) != 6 {
		t.Errorf("got %d diagnostics, want the 6 in bad and badTimer", len(diags))
	}
	want := []string{"walclock " + p + ".instrumented", "wallclock " + p + ".gone"}
	if !slices.Equal(dead, want) {
		t.Errorf("dead entries = %q, want %q", dead, want)
	}
}
