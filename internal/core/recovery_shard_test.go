package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The crashed logs the recovery suites share: the standard workload on
// an N-shard log, and a log that changed shard counts mid-life.

// shardWorkload drives the standard counters+relays workload against a
// fresh process configured with the given shard count, crashes it, and
// returns the universe dir plus component names.
func shardWorkload(t *testing.T, shards int) (dir string, counters, relays []string) {
	t.Helper()
	dir = t.TempDir()
	u, err := NewUniverse(UniverseConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m, err := u.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.WAL = WALConfig{Shards: shards}
	p, err := m.StartProcess("srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	refs := make(map[string]*Ref)
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("C%d", i)
		h, err := p.Create(name, &Counter{})
		if err != nil {
			t.Fatal(err)
		}
		counters = append(counters, name)
		refs[name] = u.ExternalRef(h.URI())
	}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("R%d", i)
		target, _ := p.Lookup(fmt.Sprintf("C%d", i))
		h, err := p.Create(name, &Relay{Server: NewRef(target.URI())})
		if err != nil {
			t.Fatal(err)
		}
		relays = append(relays, name)
		refs[name] = u.ExternalRef(h.URI())
	}
	for round := 1; round <= 8; round++ {
		for i, name := range counters {
			callInt(t, refs[name], "Add", i+round)
		}
		for _, name := range relays {
			callInt(t, refs[name], "Forward", 10)
		}
	}
	p.Crash()
	u.Shutdown()
	return dir, counters, relays
}

// assertSetOnDisk checks the layout every process log has: an era file
// and one shard-NNN directory per stream, no segment files beside them.
func assertSetOnDisk(t *testing.T, logDir string, streams int) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(logDir, "shards.meta")); err != nil {
		t.Fatalf("process log has no era file: %v", err)
	}
	dirs, _ := filepath.Glob(filepath.Join(logDir, "shard-*"))
	segs, _ := filepath.Glob(filepath.Join(logDir, "*.seg"))
	if len(dirs) != streams || len(segs) != 0 {
		t.Fatalf("%s holds %d shard directories and %d root segments, want %d and 0",
			logDir, len(dirs), len(segs), streams)
	}
}

// mixedEraWorkload builds a crashed log spanning two eras — written by
// a zero-config process (one shard), then resharded to 4 by a restart
// that kept working — and returns the universe dir, the component
// names, and the expected recovered value of C0 (spanning both eras).
func mixedEraWorkload(t *testing.T) (dir string, counters, relays []string, wantC0 int) {
	t.Helper()
	dir = t.TempDir()
	u, err := NewUniverse(UniverseConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m, err := u.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.StartProcess("srv", testConfig()) // era 0: one shard
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("C%d", i)
		h, err := p.Create(name, &Counter{})
		if err != nil {
			t.Fatal(err)
		}
		counters = append(counters, name)
		ref := u.ExternalRef(h.URI())
		callInt(t, ref, "Add", i+1)
	}
	p.Crash()
	u.Shutdown()
	assertSetOnDisk(t, filepath.Join(dir, "evo1", "srv.log"), 1)

	// Reshard restart: same directory, now asking for 4 shards. This
	// recovers era 0 and appends a 4-shard era for new work.
	u2, err := NewUniverse(UniverseConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := u2.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.WAL = WALConfig{Shards: 4}
	p2, err := m2.StartProcess("srv", cfg)
	if err != nil {
		t.Fatalf("reshard restart: %v", err)
	}
	if !p2.Recovered() {
		t.Fatal("reshard restart did not recover era 0")
	}
	if got := len(p2.log.Shards()); got != 5 {
		t.Fatalf("resharded log has %d streams, want 5 (1 + 4)", got)
	}
	refs := make(map[string]*Ref)
	for _, name := range counters {
		h, ok := p2.Lookup(name)
		if !ok {
			t.Fatalf("counter %s lost across the reshard", name)
		}
		refs[name] = u2.ExternalRef(h.URI())
	}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("R%d", i)
		target, _ := p2.Lookup(fmt.Sprintf("C%d", i))
		h, err := p2.Create(name, &Relay{Server: NewRef(target.URI())})
		if err != nil {
			t.Fatal(err)
		}
		relays = append(relays, name)
		refs[name] = u2.ExternalRef(h.URI())
	}
	for round := 1; round <= 6; round++ {
		for i, name := range counters {
			callInt(t, refs[name], "Add", 100*round+i)
		}
		for _, name := range relays {
			callInt(t, refs[name], "Forward", 7)
		}
	}
	p2.Crash()
	u2.Shutdown()

	// C0's expected value spans both eras: its era-0 Add, six era-1
	// Adds, and six relayed Forwards.
	wantC0 = 1 + (100 + 200 + 300 + 400 + 500 + 600) + 6*7
	return dir, counters, relays, wantC0
}
