package bench

import (
	"fmt"
	"time"

	phoenix "repro"
)

// Table 7 — Recovery Performance: time to recover a crashed process as
// a function of the number of method calls replayed, starting either
// from the creation record or from a context state record. Replay is
// CPU-bound (the paper measures ~0.15 ms per replayed call and ~60 ms
// extra to restore a state record); the experiment therefore runs on
// the host file system without disk simulation and reports wall time.
func init() {
	register(&Experiment{
		ID:    "table7",
		Title: "Recovery performance vs calls replayed (ms, wall time)",
		Run:   runTable7,
	})
}

func runTable7(o Options) (*Table, error) {
	o = o.Defaults()
	t := &Table{
		ID:    "Table 7",
		Title: "Recovery Performance (ms)",
		Cols:  []string{"Calls replayed", "From creation", "From state record", "Records scanned"},
		Notes: []string{
			"paper (ms): creation 575/728/868/1007/1100/1199, state 638/794/875/1162/1252/1507 for 0..5000 calls; ~0.5 s of that is .NET runtime start, ~0.15 ms per replayed call",
			"Records scanned is RecoveryStats.RecordsScanned of the from-creation restart; every restart is checked to have replayed exactly the row's calls (RecoveryStats.CallsReplayed)",
			"the paper's crossover rule holds: once replay cost exceeds the state-restore overhead, checkpointed recovery wins (Section 5.4 estimates every ~400 calls)",
		},
	}

	measure := func(n int, fromState bool) (restart time.Duration, scanned int64, _ error) {
		ec := localEnv()
		ec.hostDisk = true
		e, err := newEnv(o, ec)
		if err != nil {
			return 0, 0, err
		}
		defer e.Close()
		m, err := e.u.AddMachine("evo1")
		if err != nil {
			return 0, 0, err
		}
		cfg := benchConfig(phoenix.LogOptimized, true)
		proc := uniqueProc("rec")
		p, err := m.StartProcess(proc, cfg)
		if err != nil {
			return 0, 0, err
		}
		h, err := p.Create("Server", &BenchServer{})
		if err != nil {
			return 0, 0, err
		}
		if fromState {
			if err := h.SaveState(); err != nil {
				return 0, 0, err
			}
		}
		ref := e.u.ExternalRef(h.URI())
		for i := 0; i < n; i++ {
			if _, err := ref.Call("Add", 1); err != nil {
				return 0, 0, err
			}
		}
		p.Crash()

		var p2 *phoenix.Process
		elapsed, err := e.elapsed(func() error {
			var err error
			p2, err = m.StartProcess(proc, cfg)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		// Sanity: the recovered state must be complete.
		h2, ok := p2.Lookup("Server")
		if !ok {
			return 0, 0, fmt.Errorf("server lost in recovery")
		}
		if got := h2.Object().(*BenchServer).N; got != n {
			return 0, 0, fmt.Errorf("recovered N = %d, want %d", got, n)
		}
		stats, _ := p2.LastRecovery()
		if stats.CallsReplayed != int64(n) {
			return 0, 0, fmt.Errorf("replayed %d calls, want %d", stats.CallsReplayed, n)
		}
		return elapsed, stats.RecordsScanned, p2.Close()
	}

	// Empty-log row first (paper: ~492 ms, all of it runtime init).
	{
		ec := localEnv()
		ec.hostDisk = true
		e, err := newEnv(o, ec)
		if err != nil {
			return nil, err
		}
		m, _ := e.u.AddMachine("evo1")
		cfg := benchConfig(phoenix.LogOptimized, true)
		proc := uniqueProc("empty")
		p, err := m.StartProcess(proc, cfg)
		if err != nil {
			e.Close()
			return nil, err
		}
		p.Crash()
		var p2 *phoenix.Process
		restart, err := e.elapsed(func() error {
			var err error
			p2, err = m.StartProcess(proc, cfg)
			return err
		})
		if err != nil {
			e.Close()
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"(empty log)", ms(restart), "-", "-"})
		p2.Close()
		e.Close()
	}

	for _, n := range o.RecoverySizes {
		fromCreation, scanned, err := measure(n, false)
		if err != nil {
			return nil, fmt.Errorf("table7 n=%d creation: %w", n, err)
		}
		fromState, _, err := measure(n, true)
		if err != nil {
			return nil, fmt.Errorf("table7 n=%d state: %w", n, err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), ms(fromCreation), ms(fromState), fmt.Sprintf("%d", scanned),
		})
	}
	return t, nil
}
