package core

import (
	"fmt"
	"sync"
	"testing"
)

// TestScratchRecordsArePerContext: the hot records are built in scratch
// that belongs to the context, so contexts of one process log at once
// without sharing any of it. Eight relay contexts of one process each
// serve external calls (incoming and reply-sent scratch) and issue
// persistent calls (outgoing-reply scratch) concurrently, and what they
// logged is then replayed: a record built from another context's
// message would put the wrong arguments or replies back. The restart is
// lazy, and one recovered relay keeps serving while the rest replay.
// What -race adds is the proof that no two goroutines touch one scratch.
func TestScratchRecordsArePerContext(t *testing.T) {
	const relays, calls = 8, 40
	dir := t.TempDir()
	u, err := NewUniverse(UniverseConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, srv := startProc(t, u, "evo2", "srv", testConfig())
	_, cli := startProc(t, u, "evo1", "cli", testConfig())
	name := func(i int) string { return fmt.Sprintf("Relay%d", i) }
	refs := make([]*Ref, relays)
	for i := range refs {
		hs, err := srv.Create(fmt.Sprintf("Counter%d", i), &Counter{})
		if err != nil {
			t.Fatal(err)
		}
		hr, err := cli.Create(name(i), &Relay{Server: NewRef(hs.URI())})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = u.ExternalRef(hr.URI())
	}
	// Relay i forwards addend i+1 on every call, so its counter's
	// running sum names both the relay and the call.
	drive := func(t *testing.T, ref *Ref, i, from, to int) {
		for k := from; k <= to; k++ {
			res, err := ref.Call("Forward", i+1)
			if err != nil {
				t.Errorf("relay %d call %d: %v", i, k, err)
				return
			}
			if got, want := res[0].(int), k*(i+1); got != want {
				t.Errorf("relay %d call %d returned %d, want %d", i, k, got, want)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for i, ref := range refs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(t, ref, i, 1, calls)
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	cli.Crash()

	cfg := testConfig()
	cfg.Recovery = Recovery{Mode: RecoveryLazy, Parallelism: 1}
	m, _ := u.Machine("evo1")
	cli2, err := m.StartProcess("cli", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { cli2.Close(); srv.Close() }()
	// Relay 0 replays on this first touch, then serves on its own
	// goroutine while the others are touched (or drained) into replay.
	drive(t, refs[0], 0, calls+1, calls+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		drive(t, refs[0], 0, calls+2, 2*calls)
	}()
	for i := 1; i < relays; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(t, refs[i], i, calls+1, calls+2)
		}()
	}
	wg.Wait()
	if err := cli2.DrainRecovery(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i := 0; i < relays; i++ {
		h, ok := cli2.Lookup(name(i))
		if !ok {
			t.Fatalf("%s missing after recovery", name(i))
		}
		want := calls + 2
		if i == 0 {
			want = 2 * calls
		}
		if got := h.Object().(*Relay).Calls; got != want {
			t.Errorf("%s replayed and served %d calls, want %d", name(i), got, want)
		}
	}
}
