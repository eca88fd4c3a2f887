package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// runJSON runs phoenix-lint -json over patterns and decodes the
// report's top-level keys.
func runJSON(t *testing.T, patterns ...string) (int, map[string]json.RawMessage) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-json"}, patterns...), &stdout, &stderr)
	var report map[string]json.RawMessage
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatalf("exit %d, stdout is not a JSON object: %v\n%s\nstderr:\n%s", code, err, stdout.String(), stderr.String())
	}
	return code, report
}

// The report CI's step summary reads: on a clean tree, an empty
// diagnostics array and no dead-entry key.
func TestJSONCleanTree(t *testing.T) {
	code, report := runJSON(t, "../../...")
	if code != 0 {
		t.Errorf("exit %d on the repository tree, want 0", code)
	}
	if got := string(report["diagnostics"]); got != "[]" {
		t.Errorf("diagnostics = %s, want []", got)
	}
	if _, ok := report["dead_allowlist_entries"]; ok {
		t.Errorf("dead_allowlist_entries present on a clean tree: %s", report["dead_allowlist_entries"])
	}
}

// A run over this package alone sees none of the functions the
// embedded allowlist names, so every entry comes back dead: the key is
// present and the run fails.
func TestJSONDeadEntries(t *testing.T) {
	code, report := runJSON(t, ".")
	if code != 1 {
		t.Errorf("exit %d with dead entries, want 1", code)
	}
	if got := string(report["diagnostics"]); got != "[]" {
		t.Errorf("diagnostics = %s, want []", got)
	}
	var dead []string
	if err := json.Unmarshal(report["dead_allowlist_entries"], &dead); err != nil || len(dead) == 0 {
		t.Errorf("dead_allowlist_entries = %s (%v), want a non-empty array", report["dead_allowlist_entries"], err)
	}
}
