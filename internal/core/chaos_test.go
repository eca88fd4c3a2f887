package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestChaosExactlyOnce drives a persistent three-tier chain while
// crashing the middle and bottom tiers repeatedly at random
// interception points (not just between calls — during them), with the
// recovery service restarting everything. The end state must show
// every driver call applied exactly once. The cells are the logging
// disciplines: baseline, optimized, and optimized with Section 3.5's
// multi-call optimization, where each tier's one send per execution
// goes unforced (Algorithm 1 forces every send, so MultiCall changes
// nothing under baseline).
func TestChaosExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run")
	}
	points := []InjectionPoint{
		PointServerBeforeLogIncoming,
		PointServerAfterLogIncoming,
		PointServerAfterExecute,
		PointServerBeforeSendReply,
		PointClientBeforeForceSend,
		PointClientAfterForceSend,
		PointClientAfterReply,
	}
	for _, cell := range []struct {
		mode      LogMode
		multiCall bool
	}{{LogBaseline, false}, {LogOptimized, false}, {LogOptimized, true}} {
		mode, name := cell.mode, cell.mode.String()
		if cell.multiCall {
			name += "+multicall"
		}
		for trial := 0; trial < 2; trial++ {
			t.Run(fmt.Sprintf("%s/trial%d", name, trial), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(31*trial + 7 + int(mode))))
				u := newTestUniverse(t)
				base := Config{
					LogMode:          mode,
					SpecializedTypes: true,
					MultiCall:        cell.multiCall,
					RetryInterval:    time.Millisecond,
					RetryLimit:       5000,
					SaveStateEvery:   7,
					CheckpointEvery:  15,
				}
				injRelay := NewInjector()
				injCnt := NewInjector()
				relayCfg, cntCfg := base, base
				relayCfg.Injector = injRelay
				cntCfg.Injector = injCnt

				_, pDrv := startProc(t, u, "m-drv", "drv", base)
				mRel, pRel := startProc(t, u, "m-rel", "rel", relayCfg)
				mCnt, pCnt := startProc(t, u, "m-cnt", "cnt", cntCfg)
				mRel.EnableAutoRestart(relayCfg, time.Millisecond)
				mCnt.EnableAutoRestart(cntCfg, time.Millisecond)
				defer pDrv.Close()

				hc, err := pCnt.Create("Counter", &Counter{})
				if err != nil {
					t.Fatal(err)
				}
				hr, err := pRel.Create("Relay", &Relay{Server: NewRef(hc.URI())})
				if err != nil {
					t.Fatal(err)
				}
				hd, err := pDrv.Create("Driver", &Driver{Relay: NewRef(hr.URI())})
				if err != nil {
					t.Fatal(err)
				}
				ref := u.ExternalRef(hd.URI())

				const calls = 30
				crashes := 0
				for i := 0; i < calls; i++ {
					// Arm a random injection every few calls,
					// alternating victims.
					if i%4 == 1 {
						pt := points[rng.Intn(len(points))]
						if rng.Intn(2) == 0 {
							injRelay.CrashAt(pt, 1)
						} else {
							injCnt.CrashAt(pt, 1)
						}
						crashes++
					}
					if got := callInt(t, ref, "Go", 1); got != i+1 {
						t.Fatalf("call %d -> %d (lost or duplicated work)", i, got)
					}
				}

				// Verify on the final recovered instance.
				pc, ok := mCnt.Process("cnt")
				if !ok {
					t.Fatal("counter process gone")
				}
				h, ok := pc.Lookup("Counter")
				if !ok {
					t.Fatal("Counter gone")
				}
				final := u.ExternalRef(h.URI())
				if got := callInt(t, final, "Get"); got != calls {
					t.Fatalf("counter = %d, want %d after %d armed crashes", got, calls, crashes)
				}
				if p, ok := mRel.Process("rel"); ok {
					p.Close()
				}
				if p, ok := mCnt.Process("cnt"); ok {
					p.Close()
				}
			})
		}
	}
}

// TestSimultaneousCrashOfBothTiers crashes the relay and the counter at
// the same moment mid-workload; both recover (the relay's tail replay
// retries against the still-recovering counter) and exactly-once holds.
func TestSimultaneousCrashOfBothTiers(t *testing.T) {
	u := newTestUniverse(t)
	cfg := testConfig()
	cfg.RetryInterval = time.Millisecond
	cfg.RetryLimit = 5000
	_, pDrv := startProc(t, u, "m-drv", "drv", cfg)
	mRel, pRel := startProc(t, u, "m-rel", "rel", cfg)
	mCnt, pCnt := startProc(t, u, "m-cnt", "cnt", cfg)
	defer pDrv.Close()

	hc, _ := pCnt.Create("Counter", &Counter{})
	hr, _ := pRel.Create("Relay", &Relay{Server: NewRef(hc.URI())})
	hd, _ := pDrv.Create("Driver", &Driver{Relay: NewRef(hr.URI())})
	ref := u.ExternalRef(hd.URI())

	for i := 1; i <= 5; i++ {
		callInt(t, ref, "Go", 1)
	}
	// Both tiers die together.
	pRel.Crash()
	pCnt.Crash()

	// Restart in the inconvenient order: relay first, so its recovery
	// tail (if any) must retry against a dead counter until it
	// returns.
	done := make(chan int, 1)
	go func() {
		res, err := ref.Call("Go", 1)
		if err != nil {
			done <- -1
			return
		}
		done <- res[0].(int)
	}()
	if _, err := mRel.StartProcess("rel", cfg); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	p2, err := mCnt.StartProcess("cnt", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if pr, ok := mRel.Process("rel"); ok {
		defer pr.Close()
	}

	select {
	case got := <-done:
		if got != 6 {
			t.Fatalf("post-crash call -> %d, want 6", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call never completed after double restart")
	}
	h, _ := p2.Lookup("Counter")
	if got := h.Object().(*Counter).N; got != 6 {
		t.Errorf("counter = %d, want 6", got)
	}
}
