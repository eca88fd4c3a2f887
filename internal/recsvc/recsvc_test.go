package recsvc

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestRegisterAssignsStableIDs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	idA, existing, err := s.Register("shopd")
	if err != nil || existing {
		t.Fatalf("first register: id=%v existing=%v err=%v", idA, existing, err)
	}
	idB, _, err := s.Register("buyerd")
	if err != nil {
		t.Fatal(err)
	}
	if idA == idB {
		t.Error("two processes share a logical ID")
	}
	// Re-registering (a restart) returns the same ID and existing=true.
	idA2, existing, err := s.Register("shopd")
	if err != nil || !existing || idA2 != idA {
		t.Errorf("re-register: id=%v existing=%v err=%v, want %v/true", idA2, existing, err, idA)
	}
}

func TestTableSurvivesServiceRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	idA, _, _ := s1.Register("shopd")
	idB, _, _ := s1.Register("buyerd")

	// "Machine restart": reopen the service from the same directory.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gotA, existing, _ := s2.Register("shopd")
	if !existing || gotA != idA {
		t.Errorf("shopd after restart: %v/%v, want %v/true", gotA, existing, idA)
	}
	gotB, existing, _ := s2.Register("buyerd")
	if !existing || gotB != idB {
		t.Errorf("buyerd after restart: %v/%v", gotB, existing)
	}
	// New registrations continue past the loaded maximum.
	idC, existing, _ := s2.Register("newproc")
	if existing || idC == idA || idC == idB {
		t.Errorf("newproc id %v collides", idC)
	}
}

func TestProcessesAndRegistered(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if s.Registered("x") {
		t.Error("unknown process reported registered")
	}
	s.Register("b")
	s.Register("a")
	if !s.Registered("a") {
		t.Error("registered process not reported")
	}
	if got := s.Processes(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Processes = %v", got)
	}
}

func TestAutoRestartCallback(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Register("shopd")

	// Without auto-restart, a crash notification is a no-op.
	if ch := s.NotifyCrash("shopd"); ch != nil {
		t.Error("NotifyCrash returned a channel with monitoring off")
	}

	restarted := make(chan string, 1)
	s.EnableAutoRestart(func(name string) error {
		restarted <- name
		return nil
	})
	done := s.NotifyCrash("shopd")
	select {
	case name := <-restarted:
		if name != "shopd" {
			t.Errorf("restarted %q", name)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("restart callback never ran")
	}
	if err := <-done; err != nil {
		t.Errorf("restart error: %v", err)
	}

	// Errors from the restart function are delivered.
	s.EnableAutoRestart(func(string) error { return errors.New("boom") })
	if err := <-s.NotifyCrash("shopd"); err == nil {
		t.Error("restart error swallowed")
	}

	s.DisableAutoRestart()
	if ch := s.NotifyCrash("shopd"); ch != nil {
		t.Error("NotifyCrash active after DisableAutoRestart")
	}
}

func TestCorruptTableRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "recsvc.tab"), []byte("not a table line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("Open accepted a corrupt table")
	}
}

func TestEmptyLinesTolerated(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "recsvc.tab"), []byte("shopd 3\n\n\nbuyerd 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, existing, _ := s.Register("shopd")
	if !existing || id != 3 {
		t.Errorf("shopd = %v/%v, want 3/true", id, existing)
	}
	id, _, _ = s.Register("fresh")
	if id != 6 {
		t.Errorf("fresh = %v, want 6 (past max)", id)
	}
}
