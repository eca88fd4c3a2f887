// Lazy on-demand recovery: serve traffic seconds after a crash.
//
// A process hosts many persistent counters with a long replay backlog.
// After a crash it restarts twice: once eagerly (the classic restart —
// no call is served until every context has replayed) and once with
// RecoveryConfig{Mode: RecoveryLazy}, where the process admits traffic
// as soon as Pass 1 has rebuilt the context tables. The first call to
// a hot context pays only that context's backlog; the cold contexts
// drain in the background, and DrainRecovery waits for the drain so
// the final states can be compared. Both restarts must land on
// identical state — lazy changes when replay runs, never what it
// computes.
//
//	go run ./examples/lazyrecovery
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	phoenix "repro"
)

// Counter is the workload component.
type Counter struct{ N int }

// Add accumulates and returns the running total.
func (c *Counter) Add(v int) (int, error) {
	c.N += v
	return c.N, nil
}

const (
	contexts = 24
	rounds   = 40
)

// runWorkload builds the same multi-context backlog in dir and crashes
// the process, leaving a log for recovery to chew on.
func runWorkload(u *phoenix.Universe, m *phoenix.Machine, cfg phoenix.Config) {
	p, err := m.StartProcess("countd", cfg)
	if err != nil {
		log.Fatal(err)
	}
	refs := make([]*phoenix.Ref, contexts)
	for i := range refs {
		h, err := p.Create(fmt.Sprintf("C%d", i), &Counter{})
		if err != nil {
			log.Fatal(err)
		}
		refs[i] = u.ExternalRef(h.URI())
	}
	for r := 0; r < rounds; r++ {
		for i, ref := range refs {
			if _, err := ref.Call("Add", i+r); err != nil {
				log.Fatal(err)
			}
		}
	}
	p.Crash()
}

func main() {
	for _, mode := range []phoenix.RecoveryMode{phoenix.RecoveryEager, phoenix.RecoveryLazy} {
		dir, err := os.MkdirTemp("", "phoenix-lazy-*")
		if err != nil {
			log.Fatal(err)
		}
		u, err := phoenix.NewUniverse(phoenix.UniverseConfig{Dir: dir})
		if err != nil {
			log.Fatal(err)
		}
		m, err := u.AddMachine("evo1")
		if err != nil {
			log.Fatal(err)
		}
		cfg := phoenix.Config{
			LogMode:  phoenix.LogOptimized,
			Recovery: phoenix.RecoveryConfig{Mode: mode},
		}
		runWorkload(u, m, cfg)

		start := time.Now()
		p, err := m.StartProcess("countd", cfg)
		if err != nil {
			log.Fatal(err)
		}
		// First call after restart: under eager mode StartProcess above
		// already paid for the full replay; under lazy mode the process
		// came up after Pass 1 and this call triggers on-demand replay
		// of C0's backlog only.
		h0, ok := p.Lookup("C0")
		if !ok {
			log.Fatal("C0 lost")
		}
		if _, err := u.ExternalRef(h0.URI()).Call("Add", 0); err != nil {
			log.Fatal(err)
		}
		firstCall := time.Since(start)

		// Wait out the background drain (a no-op after eager recovery),
		// then verify every context recovered the full workload.
		if err := p.DrainRecovery(); err != nil {
			log.Fatal(err)
		}
		for i := 0; i < contexts; i++ {
			h, ok := p.Lookup(fmt.Sprintf("C%d", i))
			if !ok {
				log.Fatalf("C%d lost", i)
			}
			want := rounds * (2*i + rounds - 1) / 2
			if n := h.Object().(*Counter).N; n != want {
				log.Fatalf("C%d = %d after %v recovery, want %d", i, n, mode, want)
			}
		}

		stats, ok := p.LastRecovery()
		if !ok {
			log.Fatal("no recovery stats")
		}
		fmt.Printf("%-6v first call %8v  ttfc=%v  on-demand=%d background=%d replayed=%d\n",
			mode, firstCall.Round(time.Microsecond),
			time.Duration(stats.TimeToFirstCallNanos).Round(time.Microsecond),
			stats.ContextsOnDemand, stats.ContextsBackground, stats.CallsReplayed)
		p.Close()
		os.RemoveAll(dir)
	}
	fmt.Println("\nlazy admission serves the first call before the backlog finishes replaying")
}
