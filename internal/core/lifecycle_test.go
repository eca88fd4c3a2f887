package core

import (
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// TestLifecycleEvents reads each lifecycle fact off its one surface: a
// state save moves ckpt.state_saves and the handle's restart LSN, a
// checkpoint ckpt.process, a trim ckpt.trims and wal.trimmed_bytes, a
// crash Process.Crashed, and a restart recovery.runs and LastRecovery,
// whose replay count is recovery.replayed_calls'.
func TestLifecycleEvents(t *testing.T) {
	u := newTestUniverse(t)
	cfg := testConfig()
	cfg.SaveStateEvery = 2
	cfg.CheckpointEvery = 4
	cfg.Metrics = obs.NewRegistry()
	m, p := startProc(t, u, "evo1", "srv", cfg)
	p.SetLogSegmentBytes(2048)
	h, err := p.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	created := h.RestartLSN()
	ref := u.ExternalRef(h.URI())
	for i := 0; i < 40; i++ {
		callInt(t, ref, "Add", 1)
	}
	callInt(t, ref, "Add", 1) // leaves one call past the last state record to replay
	if err := p.TrimLog(); err != nil {
		t.Fatal(err)
	}
	before := cfg.Metrics.Snapshot()
	for _, name := range []string{obs.StateSaves, obs.Checkpoints, obs.Trims, obs.WALTrimmedBytes} {
		if before.Counter(name) == 0 {
			t.Errorf("%s did not move", name)
		}
	}
	if h.RestartLSN() <= created {
		t.Errorf("restart LSN %v did not move past the creation record %v", h.RestartLSN(), created)
	}
	p.Crash()
	if !p.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
	p2, err := m.StartProcess("srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := callInt(t, ref, "Get"); got != 41 {
		t.Errorf("recovered counter = %d, want 41", got)
	}

	d := cfg.Metrics.Snapshot().Diff(before)
	rs, ok := p2.LastRecovery()
	if !ok || d.Counter(obs.RecoveryRuns) != 1 {
		t.Fatalf("LastRecovery ok=%v, recovery.runs moved %d; want one run", ok, d.Counter(obs.RecoveryRuns))
	}
	if rs.ContextsRestored != 1 || rs.CallsReplayed == 0 {
		t.Errorf("recovery restored %d contexts and replayed %d calls; want 1 and at least one", rs.ContextsRestored, rs.CallsReplayed)
	}
	if got := d.Counter(obs.ReplayedCalls); got != rs.CallsReplayed {
		t.Errorf("recovery.replayed_calls moved %d, LastRecovery says %d", got, rs.CallsReplayed)
	}
}

// TestRetryEvents: a call redriven while its server is down moves
// rpc.retries.
func TestRetryEvents(t *testing.T) {
	reg := obs.NewRegistry()
	u := metricsUniverse(t, reg, disk.NewRealClock(1))
	cfg := testConfig()
	cfg.RetryInterval = time.Millisecond
	cfg.RetryLimit = 2000
	_, pc := startProc(t, u, "evo1", "cli", cfg)
	ms, ps := startProc(t, u, "evo2", "srv", testConfig())
	defer pc.Close()
	hc, err := ps.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := pc.Create("Relay", &Relay{Server: NewRef(hc.URI())})
	if err != nil {
		t.Fatal(err)
	}
	ps.Crash()
	done := make(chan error, 1)
	go func() {
		_, err := u.ExternalRef(hr.URI()).Call("Forward", 1)
		done <- err
	}()
	time.Sleep(15 * time.Millisecond)
	if _, err := ms.StartProcess("srv", testConfig()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if reg.Snapshot().Counter(obs.RPCRetries) == 0 {
		t.Error("rpc.retries did not move while the server was down")
	}
}

// TestLogModeString pins the LogMode stringer's names and its
// defensive fallback for out-of-range values.
func TestLogModeString(t *testing.T) {
	if got := LogBaseline.String(); got != "baseline" {
		t.Errorf("LogBaseline.String() = %q, want %q", got, "baseline")
	}
	if got := LogOptimized.String(); got != "optimized" {
		t.Errorf("LogOptimized.String() = %q, want %q", got, "optimized")
	}
	if got := LogMode(7).String(); got != "LogMode(7)" {
		t.Errorf("out-of-range LogMode String() = %q, want %q", got, "LogMode(7)")
	}
}

// TestRecoveryEventOrdering checks crash recovery on its surfaces: every
// replayed call is a flight-recorder replay span, carrying its method
// and incoming record's LSN, that starts after the recovery's Pass-1
// scan span ended; recovery.replayed_calls counts them and equals
// LastRecovery's CallsReplayed; and recovery.suppressed_sends equals
// CallsSuppressed, one per replay.
func TestRecoveryEventOrdering(t *testing.T) {
	u, rec := newTracedUniverse(t)
	cfg := testConfig()
	cfg.Metrics = obs.NewRegistry() // isolate the client's counters
	m, pc := startProc(t, u, "evo1", "cli", cfg)
	_, ps := startProc(t, u, "evo2", "srv", testConfig())
	defer ps.Close()
	hc, err := ps.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := pc.Create("Relay", &Relay{Server: NewRef(hc.URI())})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(hr.URI())
	const calls = 5
	for i := 0; i < calls; i++ {
		callInt(t, ref, "Forward", 1)
	}
	pc.Crash()
	p2, err := m.StartProcess("cli", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	callInt(t, ref, "Forward", 1)

	var scanEnd int64
	var replays []trace.Span
	for _, sp := range rec.Snapshot() {
		switch {
		case sp.Proc != "cli":
		case sp.Stage == trace.StageRecoveryScan:
			scanEnd = max(scanEnd, sp.End)
		case sp.Stage == trace.StageReplay:
			replays = append(replays, sp)
		}
	}
	if scanEnd == 0 || len(replays) == 0 {
		t.Fatalf("flight recorder holds %d replay spans and no recovery scan span (end %d)", len(replays), scanEnd)
	}
	for _, sp := range replays {
		if sp.Start < scanEnd {
			t.Errorf("replay span starts at %d, before the Pass-1 scan ended at %d", sp.Start, scanEnd)
		}
		if sp.Method != "Forward" || sp.LSN == 0 {
			t.Errorf("replay span method %q at LSN %d, want Forward at its incoming record", sp.Method, sp.LSN)
		}
	}

	rs, ok := p2.LastRecovery()
	if !ok {
		t.Fatal("LastRecovery reported no run")
	}
	snap := cfg.Metrics.Snapshot()
	if got := snap.Counter(obs.ReplayedCalls); got != rs.CallsReplayed || got != int64(len(replays)) {
		t.Errorf("recovery.replayed_calls = %d, LastRecovery says %d, %d replay spans", got, rs.CallsReplayed, len(replays))
	}
	if rs.ContextsRestored != 1 {
		t.Errorf("ContextsRestored = %d, want 1", rs.ContextsRestored)
	}
	// Every replayed Forward found its outgoing reply on the log (the
	// external reply-sent force covered it), so each replay suppressed
	// exactly one send — and the metric agrees with the stats.
	if rs.CallsSuppressed != rs.CallsReplayed {
		t.Errorf("CallsSuppressed = %d, want %d", rs.CallsSuppressed, rs.CallsReplayed)
	}
	if got := snap.Counter(obs.SuppressedSends); got != rs.CallsSuppressed {
		t.Errorf("recovery.suppressed_sends = %d, want %d", got, rs.CallsSuppressed)
	}
}
