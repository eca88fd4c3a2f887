package bench

import (
	"fmt"
	"sync"
	"time"

	phoenix "repro"
)

// Recovery sweep — restart latency vs Pass-2 parallelism: one process
// hosts many contexts, each with a backlog of logged calls whose
// re-execution costs real time (the paper measures ~0.15 ms of CPU per
// replayed call; here the per-call cost is an explicit wait so the
// effect is visible at any machine size). One replay worker replays
// the contexts one after another; Config.Recovery.Parallelism adds
// workers that replay contexts side by side, so restart latency drops
// as parallelism grows while the replayed-call and scanned-record
// counts stay identical. Like Table 7
// the experiment runs on the host file system and reports wall time.
func init() {
	register(&Experiment{
		ID:    "recovery",
		Title: "Parallel recovery: restart latency vs Pass-2 parallelism",
		Run:   runRecovery,
	})
}

// ReplayServer is the per-context component: each call waits a fixed
// interval and bumps a counter, standing in for method bodies whose
// re-execution during replay has real cost.
type ReplayServer struct {
	N int
}

// Work sleeps for us microseconds and mutates state.
func (s *ReplayServer) Work(us int) (int, error) {
	time.Sleep(time.Duration(us) * time.Microsecond)
	s.N++
	return s.N, nil
}

const (
	recoveryContexts = 64
	recoveryCalls    = 3    // calls logged per context
	recoveryWorkUS   = 1000 // per-call replay cost, microseconds
)

func runRecovery(o Options) (*Table, error) {
	o = o.Defaults()
	t := &Table{
		ID: "Recovery",
		Title: fmt.Sprintf(
			"Parallel recovery: %d contexts x %d calls, %d µs replay cost per call",
			recoveryContexts, recoveryCalls, recoveryWorkUS),
		Cols: []string{"Parallelism", "Restart (ms)", "Pass 1 (ms)", "Pass 2 (ms)",
			"Workers", "Calls replayed", "Records scanned", "Device reads", "Read ÷ log bytes"},
		Notes: []string{
			"parallelism N is N replay workers, each replaying one context at a time from its own chain (Config.Recovery; 0 means 1)",
			"replayed calls and scanned records are identical across rows — only the schedule changes; device reads (RecoveryStats.LogReads) are the read-ahead blocks of the open-time check and the scans plus each worker's one read of the backlog, and Read ÷ log bytes is RecoveryStats.LogBytesRead over the bytes the crashed process had written: one more log length per extra worker",
			"durations are Process.LastRecovery() stats; Restart wraps the whole StartProcess call",
		},
	}
	for _, par := range clientLevels(o.RecoveryParallelism) {
		row, err := runRecoveryCell(o, par)
		if err != nil {
			return nil, fmt.Errorf("recovery parallelism=%d: %w", par, err)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func runRecoveryCell(o Options, par int) ([]string, error) {
	ec := localEnv()
	ec.hostDisk = true // replay cost, not media, is under measurement
	e, err := newEnv(o, ec)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	m, err := e.u.AddMachine("evo1")
	if err != nil {
		return nil, err
	}
	cfg := benchConfig(phoenix.LogOptimized, true)
	cfg.Recovery = phoenix.RecoveryConfig{Parallelism: par}
	proc := uniqueProc("prec")
	p, err := m.StartProcess(proc, cfg)
	if err != nil {
		return nil, err
	}

	// Build the backlog: each context's calls run from its own client
	// goroutine (contexts are independent; setup overlaps the waits
	// the same way parallel recovery will).
	refs := make([]*phoenix.Ref, recoveryContexts)
	for i := range refs {
		h, err := p.Create(fmt.Sprintf("Ctx%d", i), &ReplayServer{})
		if err != nil {
			return nil, err
		}
		refs[i] = e.u.ExternalRef(h.URI())
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(refs))
	for _, ref := range refs {
		wg.Add(1)
		go func(r *phoenix.Ref) {
			defer wg.Done()
			for c := 0; c < recoveryCalls; c++ {
				if _, err := r.Call("Work", recoveryWorkUS); err != nil {
					errs <- err
					return
				}
			}
		}(ref)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}
	logBytes := p.LogStats().BytesWritten
	p.Crash()

	var p2 *phoenix.Process
	restart, err := e.elapsed(func() error {
		var err error
		p2, err = m.StartProcess(proc, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer p2.Close()
	// Sanity: every context replayed its whole backlog.
	for i := 0; i < recoveryContexts; i++ {
		h, ok := p2.Lookup(fmt.Sprintf("Ctx%d", i))
		if !ok {
			return nil, fmt.Errorf("context Ctx%d lost in recovery", i)
		}
		if got := h.Object().(*ReplayServer).N; got != recoveryCalls {
			return nil, fmt.Errorf("Ctx%d recovered N = %d, want %d", i, got, recoveryCalls)
		}
	}
	stats, ok := p2.LastRecovery()
	if !ok {
		return nil, fmt.Errorf("restarted process reports no recovery run")
	}
	return []string{
		fmt.Sprintf("%d", par),
		ms(restart),
		ms(stats.Pass1Duration),
		ms(stats.Pass2Duration),
		fmt.Sprintf("%d", stats.WorkersUsed),
		fmt.Sprintf("%d", stats.CallsReplayed),
		fmt.Sprintf("%d", stats.RecordsScanned),
		fmt.Sprintf("%d", stats.LogReads),
		fmt.Sprintf("%.2f", float64(stats.LogBytesRead)/float64(logBytes)),
	}, nil
}
