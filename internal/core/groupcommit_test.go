package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
)

// groupCommitConfig is testConfig with the commit window switched on.
func groupCommitConfig() Config {
	cfg := testConfig()
	cfg.WAL.GroupCommit = GroupCommit{Enabled: true}
	return cfg
}

// TestGroupCommitEndToEndCrashRecovery drives concurrent external
// clients against one process whose log holds the commit window on a
// virtual clock (the window is deterministic and instant),
// then crashes the process mid-life: recovery must rebuild every
// counter exactly, proving batched acknowledgements were durable. The
// one row keeps the name "shards=1" it had beside a sharded row.
func TestGroupCommitEndToEndCrashRecovery(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		u, err := NewUniverse(UniverseConfig{
			dev:   powerCut(),
			Dir:   t.TempDir(),
			Clock: disk.NewVirtualClock(),
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := groupCommitConfig()
		m, p := startProc(t, u, "evo1", "srv", cfg)

		const clients, calls = 8, 15
		refs := make([]*Ref, clients)
		for i := range refs {
			h, err := p.Create(fmt.Sprintf("Counter%d", i), &Counter{})
			if err != nil {
				t.Fatal(err)
			}
			refs[i] = u.ExternalRef(h.URI())
		}
		var wg sync.WaitGroup
		for _, ref := range refs {
			wg.Add(1)
			go func(r *Ref) {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					if _, err := r.Call("Add", 1); err != nil {
						t.Errorf("Add: %v", err)
						return
					}
				}
			}(ref)
		}
		wg.Wait()

		p.Crash()
		p2, err := m.StartProcess("srv", cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p2.Close()
		for i := 0; i < clients; i++ {
			h, ok := p2.Lookup(fmt.Sprintf("Counter%d", i))
			if !ok {
				t.Fatalf("Counter%d missing after recovery", i)
			}
			if got := callInt(t, u.ExternalRef(h.URI()), "Get"); got != calls {
				t.Errorf("Counter%d = %d after recovery, want %d", i, got, calls)
			}
		}
	})
}

// TestGroupCommitExactlyOnceUnderInjection re-runs the exactly-once
// crash-injection harness with group commit enabled in every process:
// batching forces must not widen any recovery window. The points cover
// the client-side force (now a batched sync) and the server's logged
// reply.
func TestGroupCommitExactlyOnceUnderInjection(t *testing.T) {
	points := []InjectionPoint{
		PointClientBeforeForceSend,
		PointClientAfterForceSend,
		PointServerAfterLogIncoming,
		PointServerBeforeSendReply,
	}
	for _, mode := range []LogMode{LogBaseline, LogOptimized} {
		for _, pt := range points {
			t.Run(fmt.Sprintf("%v/%v", mode, pt), func(t *testing.T) {
				base := Config{
					LogMode:          mode,
					SpecializedTypes: true,
					RetryInterval:    2 * time.Millisecond,
					RetryLimit:       2000,
					WAL:              WALConfig{GroupCommit: GroupCommit{Enabled: true}},
				}
				runExactlyOnceCfg(t, base, pt, false)
			})
		}
	}
}

// TestGroupCommitConcurrentRelayFanIn exercises the batching the
// commit window exists for: many persistent relays in one process
// forcing the shared log concurrently (message-3 forces), all fanning
// into one counter process. Every chain must complete and the counter
// must see every increment exactly once.
func TestGroupCommitConcurrentRelayFanIn(t *testing.T) {
	u := newTestUniverse(t)
	cfg := groupCommitConfig()
	_, pRel := startProc(t, u, "evo1", "rel", cfg)
	_, pCnt := startProc(t, u, "evo2", "cnt", cfg)
	defer pRel.Close()
	defer pCnt.Close()

	hc, err := pCnt.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	const relays, calls = 6, 10
	refs := make([]*Ref, relays)
	for i := range refs {
		hr, err := pRel.Create(fmt.Sprintf("Relay%d", i), &Relay{Server: NewRef(hc.URI())})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = u.ExternalRef(hr.URI())
	}
	var wg sync.WaitGroup
	for _, ref := range refs {
		wg.Add(1)
		go func(r *Ref) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if _, err := r.Call("Forward", 1); err != nil {
					t.Errorf("Forward: %v", err)
					return
				}
			}
		}(ref)
	}
	wg.Wait()
	if got := callInt(t, u.ExternalRef(hc.URI()), "Get"); got != relays*calls {
		t.Errorf("counter = %d, want %d", got, relays*calls)
	}
}
