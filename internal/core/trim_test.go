package core

import (
	"repro/internal/msg"

	"testing"
)

// TestTrimLogReclaimsLogSpace: with checkpointing on and TrimLog called
// as the workload runs, a long workload's log stays bounded — dead
// segments are deleted once every restart point has moved past them —
// and recovery still works.
func TestTrimLogReclaimsLogSpace(t *testing.T) {
	u := newTestUniverse(t)
	cfg := testConfig()
	cfg.SaveStateEvery = 20
	cfg.CheckpointEvery = 40
	m, p := startProc(t, u, "evo1", "srv", cfg)
	p.SetLogSegmentBytes(4 * 1024)
	h, err := p.Create("KV", &KVStore{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	const calls = 600
	for i := 0; i < calls; i++ {
		if _, err := ref.Call("Set", "k", "some-reasonably-long-value-to-grow-the-log"); err != nil {
			t.Fatal(err)
		}
		// A no-op until a checkpoint is published; then it trims to it.
		if err := p.TrimLog(); err != nil {
			t.Fatal(err)
		}
	}
	st := p.LogStats()
	if st.TrimmedBytes == 0 {
		t.Fatal("nothing was trimmed")
	}
	if st.Segments > 8 {
		t.Errorf("log kept %d segments; trimming is not keeping up", st.Segments)
	}

	// Recovery from the trimmed log.
	p.Crash()
	p2, err := m.StartProcess("srv", cfg)
	if err != nil {
		t.Fatalf("recover from trimmed log: %v", err)
	}
	defer p2.Close()
	res, err := ref.Call("Snapshot")
	if err != nil {
		t.Fatal(err)
	}
	got := res[0].(map[string]string)
	if got["k"] != "some-reasonably-long-value-to-grow-the-log" {
		t.Errorf("recovered value = %q", got["k"])
	}
	h2, _ := p2.Lookup("KV")
	if ops := h2.Object().(*KVStore).Ops; ops != calls {
		t.Errorf("recovered ops = %d, want %d", ops, calls)
	}
}

// TestTrimKeepsStatelessComponents: stateless contexts get re-emitted
// creation records at checkpoints, so trimming does not lose them.
func TestTrimKeepsStatelessComponents(t *testing.T) {
	u := newTestUniverse(t)
	cfg := testConfig()
	cfg.SaveStateEvery = 10
	cfg.CheckpointEvery = 20
	m, p := startProc(t, u, "evo1", "srv", cfg)
	p.SetLogSegmentBytes(2 * 1024)

	if _, err := p.Create("Pure", &Pure{}, WithType(msg.Functional)); err != nil {
		t.Fatal(err)
	}
	h, err := p.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	for i := 0; i < 200; i++ {
		callInt(t, ref, "Add", 1)
	}
	if err := p.TrimLog(); err != nil {
		t.Fatal(err)
	}
	if p.LogStats().TrimmedBytes == 0 {
		t.Fatal("nothing was trimmed")
	}
	p.Crash()
	p2, err := m.StartProcess("srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	// The functional component survived trimming via its re-emitted
	// creation record.
	pure := u.ExternalRef(MakeURIForTest("evo1", "srv", "Pure"))
	if got := callInt(t, pure, "Double", 4); got != 8 {
		t.Errorf("functional after trim+recovery: %d", got)
	}
	if got := callInt(t, ref, "Get"); got != 200 {
		t.Errorf("counter after trim+recovery = %d", got)
	}
}

// TestManualTrimBeforeCheckpointIsNoop: without a durable checkpoint,
// recovery scans from the log start, so nothing may be trimmed.
func TestManualTrimBeforeCheckpointIsNoop(t *testing.T) {
	u := newTestUniverse(t)
	_, p := startProc(t, u, "evo1", "srv", testConfig())
	defer p.Close()
	p.SetLogSegmentBytes(1024)
	h, err := p.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	for i := 0; i < 100; i++ {
		callInt(t, ref, "Add", 1)
	}
	if err := p.TrimLog(); err != nil {
		t.Fatal(err)
	}
	if got := p.LogStats().TrimmedBytes; got != 0 {
		t.Errorf("trimmed %d bytes without a checkpoint", got)
	}
}
