package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/wal"
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

// mixedEraWorkload builds a crashed log spanning two eras — a legacy
// single-stream era (including some gob-framed records) written before
// sharding existed, then a 4-shard era appended after an upgrade
// restart — and returns the universe dir, the component names, and the
// expected recovered value of C0 (spanning both eras).
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
	p, err := m.StartProcess("srv", testConfig()) // era 0: single stream
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
	// A stretch of legacy gob-framed records inside the legacy era:
	// the upgrade must not care how old frames were encoded.
	legacyRecEncoding = true
	for i, name := range counters {
		h, _ := p.Lookup(name)
		callInt(t, u.ExternalRef(h.URI()), "Add", 10+i)
	}
	legacyRecEncoding = false
	p.Crash()
	u.Shutdown()

	// Upgrade restart: same directory, now asking for 4 shards. This
	// recovers the legacy era and appends a sharded era for new work.
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
		t.Fatalf("upgrade restart: %v", err)
	}
	if !p2.Recovered() {
		t.Fatal("upgrade restart did not recover the legacy era")
	}
	if !wal.IsSharded(filepath.Join(dir, "evo1", "srv.log")) {
		t.Fatal("upgrade restart left the log unsharded")
	}
	refs := make(map[string]*Ref)
	for _, name := range counters {
		h, ok := p2.Lookup(name)
		if !ok {
			t.Fatalf("counter %s lost across the upgrade", name)
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

	// C0's expected value spans both eras: its two legacy-era Adds, six
	// sharded-era Adds, and six relayed Forwards.
	wantC0 = (1 + 10) + (100 + 200 + 300 + 400 + 500 + 600) + 6*7
	return dir, counters, relays, wantC0
}
