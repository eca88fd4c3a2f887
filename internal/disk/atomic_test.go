package disk

import (
	"os"
	"path/filepath"
	"testing"
)

// TestAtomicWriteFile: the file holds exactly the last write, a stale
// temp file from a write that never reached its rename is overwritten
// rather than joined by another, and a failed write leaves the old
// content and no litter.
func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "root")
	if err := os.WriteFile(path+".tmp", []byte("a longer leftover of a crashed write"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"first", "2nd"} {
		if err := AtomicWriteFile(HostDevice{}, path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("read %q, %v; want %q", got, err, want)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Errorf("directory holds %d entries after a write, want the file alone", len(entries))
		}
	}
	// A path whose rename cannot succeed: a non-empty directory.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(HostDevice{}, blocked, []byte("x")); err == nil {
		t.Error("renamed a file over a non-empty directory")
	}
	if _, err := os.Stat(blocked + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("failed write left its temp file behind: %v", err)
	}
}
