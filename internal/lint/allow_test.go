package lint_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/lint"
)

func TestParseAllowlist(t *testing.T) {
	src := `
# full-line comment
wallclock (*repro/internal/wal.Log).syncLocked # wall-time force_micros histogram
forcesite repro/internal/core.appendRec        # accounting chokepoint
`
	a, err := lint.ParseAllowlist("test", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !a.Allowed("wallclock", "(*repro/internal/wal.Log).syncLocked") {
		t.Error("wallclock entry not found")
	}
	if !a.Allowed("forcesite", "repro/internal/core.appendRec") {
		t.Error("forcesite entry not found")
	}
	if a.Allowed("wallclock", "repro/internal/core.appendRec") {
		t.Error("entry leaked across analyzers")
	}
	if a.Allowed("lockorder", "nope") {
		t.Error("unknown entry reported as allowed")
	}
	want := [][2]string{
		{"forcesite", "repro/internal/core.appendRec"},
		{"wallclock", "(*repro/internal/wal.Log).syncLocked"},
	}
	if got := a.Entries(); !slices.Equal(got, want) {
		t.Errorf("Entries() = %v, want %v", got, want)
	}
}

func TestParseAllowlistRejects(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"missing why", "wallclock repro/internal/core.f\n", "lacks a '# why'"},
		{"missing function", "wallclock # just because\n", "want \"<analyzer> <function> # why\""},
		{"extra field", "wallclock a.f b.g # two functions\n", "want \"<analyzer> <function> # why\""},
		{"duplicate", "wallclock a.f # one\nwallclock a.f # two\n", "duplicate entry"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := lint.ParseAllowlist("test", []byte(tc.src))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// A nil allowlist allows nothing — a Runner without one relies on this.
func TestNilAllowlist(t *testing.T) {
	var a *lint.Allowlist
	if a.Allowed("wallclock", "anything") {
		t.Error("nil allowlist allowed an entry")
	}
	if e := a.Entries(); e != nil {
		t.Errorf("nil allowlist Entries = %v", e)
	}
}
