package core

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// newTracedUniverse is newTestUniverse with a flight recorder wired
// into the universe config: every process inherits it, and its clock is
// the universe clock so span timestamps are in universe time.
func newTracedUniverse(t *testing.T) (*Universe, *trace.Recorder) {
	t.Helper()
	clk := disk.NewRealClock(1)
	rec := trace.NewRecorder(trace.Options{
		Name:    t.Name(),
		Metrics: obs.NewRegistry(),
		Now:     func() int64 { return clk.Now().UnixNano() },
	})
	u, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: t.TempDir(), Clock: clk, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	return u, rec
}

// TestCrashCrossingTimeline is the tentpole's acceptance test: one
// external call crosses a server crash, and the merged timeline shows
// the call's pre-crash stages (from the flight-recorder dump the crash
// wrote) and the post-restart Pass-2 replay (same TraceID, same LSN)
// as one trace.
func TestCrashCrossingTimeline(t *testing.T) {
	u, rec := newTracedUniverse(t)
	cfg := testConfig()

	inj := NewInjector().CrashAt(PointServerBeforeSendReply, 1)
	crashCfg := cfg
	crashCfg.Injector = inj

	_, pCli := startProc(t, u, "evo1", "cli", cfg)
	mSrv, _ := startProc(t, u, "evo2", "srv", crashCfg)
	mSrv.EnableAutoRestart(cfg, 3*time.Millisecond)
	pSrv, _ := mSrv.Process("srv")

	hs, err := pSrv.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := pCli.Create("Relay", &Relay{Server: NewRef(hs.URI())})
	if err != nil {
		t.Fatal(err)
	}

	// The server logs and forces both messages of the Add call, then
	// crashes before the reply leaves; the relay's condition-4 retry
	// redrives it into the recovered process, which answers from the
	// last-call table. Exactly-once end to end.
	ref := u.ExternalRef(hr.URI())
	if got := callInt(t, ref, "Forward", 1); got != 1 {
		t.Fatalf("Forward -> %d, want 1", got)
	}
	if n := inj.Fired(PointServerBeforeSendReply); n != 1 {
		t.Fatalf("injection fired %d times, want 1", n)
	}
	if got := callInt(t, u.ExternalRef(hs.URI()), "Get"); got != 1 {
		t.Fatalf("counter = %d, want exactly 1", got)
	}

	// The crash must have dumped the ring next to the server's log.
	crashDump := filepath.Join(u.cfg.Dir, "evo2", "srv.ftr.0")
	preSpans, err := trace.LoadDump(crashDump)
	if err != nil {
		t.Fatalf("crash dump %s: %v", crashDump, err)
	}
	if len(preSpans) == 0 {
		t.Fatal("crash dump holds no spans")
	}

	// Live processes don't auto-dump; snapshot the recorder (which now
	// also holds the recovery and replay spans) the way an operator
	// would before running phoenix-trace.
	postDump := filepath.Join(u.cfg.Dir, "post.ftr.0")
	if err := trace.WriteDump(postDump, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}

	// Release the logs before scanning them offline.
	pCli.Close()
	if p, ok := mSrv.Process("srv"); ok {
		p.Close()
	}

	logs, dumps, err := DiscoverTraceFiles(u.cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) < 2 {
		t.Fatalf("discovered logs %v, want the cli and srv logs", logs)
	}
	if len(dumps) < 2 {
		t.Fatalf("discovered dumps %v, want the crash dump and the live snapshot", dumps)
	}
	tls, err := TraceTimelines(logs, dumps)
	if err != nil {
		t.Fatal(err)
	}

	// Exactly one trace crossed the crash: it holds a replay span.
	var crossing *Timeline
	for i := range tls {
		for _, e := range tls[i].Events {
			if e.Stage == "replay" {
				if crossing != nil && crossing.Trace != tls[i].Trace {
					t.Fatalf("replay spans in two traces: %x and %x", crossing.Trace, tls[i].Trace)
				}
				crossing = &tls[i]
			}
		}
	}
	if crossing == nil {
		t.Fatal("no timeline holds a replay span; recovery did not stitch to the original trace")
	}

	// The crossing trace must hold the pre-crash server stages sourced
	// from the crash dump, the incoming record from the log scan, and a
	// replay span at that record's LSN.
	var (
		preStages  = map[string]bool{}
		replayLSN  uint64
		appendLSNs = map[uint64]bool{}
		incLSNs    = map[uint64]bool{}
	)
	for _, e := range crossing.Events {
		if e.Kind == "span" && strings.HasPrefix(e.Source, "srv.ftr.") {
			preStages[e.Stage] = true
			if e.Stage == "wal_append" {
				appendLSNs[e.LSN] = true
			}
		}
		if e.Kind == "span" && e.Stage == "replay" {
			replayLSN = e.LSN
		}
		if e.Kind == "record" && e.Rec == "incoming" && e.Proc == "srv" {
			incLSNs[e.LSN] = true
		}
	}
	for _, want := range []string{"server_intercept", "wal_append", "sync_wait", "execute"} {
		if !preStages[want] {
			t.Errorf("crash dump is missing pre-crash stage %q (have %v)", want, preStages)
		}
	}
	if replayLSN == 0 {
		t.Fatal("replay span has no LSN")
	}
	if !appendLSNs[replayLSN] {
		t.Errorf("replay LSN %d not among pre-crash wal_append LSNs %v", replayLSN, appendLSNs)
	}
	if !incLSNs[replayLSN] {
		t.Errorf("replay LSN %d not among srv incoming-record LSNs %v", replayLSN, incLSNs)
	}

	// The same trace spans the client side too — one causal timeline
	// from interception to resume.
	stages := map[string]bool{}
	for _, e := range crossing.Events {
		if e.Kind == "span" {
			stages[e.Stage] = true
		}
	}
	for _, want := range []string{"client_intercept", "transport", "client_resume"} {
		if !stages[want] {
			t.Errorf("crossing trace is missing client stage %q (have %v)", want, stages)
		}
	}

	// And the text renderer shows the stitched story.
	var buf bytes.Buffer
	WriteTimelines(&buf, []Timeline{*crossing})
	out := buf.String()
	for _, want := range []string{"trace ", "replay", "server_intercept", "rec  incoming"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered timeline is missing %q:\n%s", want, out)
		}
	}
}

// TestRecoveryContextReplaySpans: the replay engine records each
// context's replay as a demand_replay span carrying the context's
// restart LSN, in eager mode as in lazy.
func TestRecoveryContextReplaySpans(t *testing.T) {
	u, rec := newTracedUniverse(t)
	cfg := testConfig()

	_, pCli := startProc(t, u, "evo1", "cli", cfg)
	mSrv, pSrv := startProc(t, u, "evo2", "srv", cfg)

	hs, err := pSrv.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := pCli.Create("Relay", &Relay{Server: NewRef(hs.URI())})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(hr.URI())
	for i := 0; i < 3; i++ {
		callInt(t, ref, "Forward", 1)
	}

	pSrv.Crash()
	if _, err := mSrv.StartProcess("srv", cfg); err != nil {
		t.Fatal(err)
	}
	if got := callInt(t, u.ExternalRef(hs.URI()), "Get"); got != 3 {
		t.Fatalf("counter = %d after recovery, want 3", got)
	}

	replays := 0
	for _, sp := range rec.Snapshot() {
		if sp.Stage == trace.StageDemandReplay {
			replays++
			if sp.LSN == 0 {
				t.Error("demand_replay span has no restart LSN")
			}
		}
	}
	if replays != 1 {
		t.Errorf("recovery of one context recorded %d demand_replay spans, want 1", replays)
	}
}
