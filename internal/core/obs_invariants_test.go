package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/wal"
)

// These tests pin the paper's per-algorithm logging invariants using
// the obs counters alone — no wal.Stats, no trace events. Each process
// gets its own registry via Config.Metrics, so client- and server-side
// accounting are cleanly separated.

// diffDuring snapshots reg, runs fn, and returns the counter deltas.
func diffDuring(reg *obs.Registry, fn func()) obs.Snapshot {
	before := reg.Snapshot()
	fn()
	return reg.Snapshot().Diff(before)
}

// TestAlgorithm2InvariantByCounters: optimized persistent→persistent
// (Algorithm 2). Per the paper: the send message (3) is forced but not
// written; the receive message (1) is written but not forced; message 2
// is neither written nor forced (only a force of prior records);
// message 4 is written unforced.
func TestAlgorithm2InvariantByCounters(t *testing.T) {
	u := newTestUniverse(t)
	cliReg, srvReg := obs.NewRegistry(), obs.NewRegistry()
	cliCfg := testConfig()
	cliCfg.Metrics = cliReg
	srvCfg := testConfig()
	srvCfg.Metrics = srvReg
	_, pc := startProc(t, u, "evo1", "cli", cliCfg)
	_, ps := startProc(t, u, "evo2", "srv", srvCfg)
	defer pc.Close()
	defer ps.Close()
	hs, err := ps.Create("Server", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := pc.Create("Batcher", &Batcher{Server: NewRef(hs.URI())})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(hb.URI())
	callInt(t, ref, "RunBatch", "Add", 1, 1) // warm up: learning + creation forces

	const n = 8
	var srvD obs.Snapshot
	cliD := diffDuring(cliReg, func() {
		srvD = diffDuring(srvReg, func() {
			callInt(t, ref, "RunBatch", "Add", n, 1)
		})
	})

	// Server side: every inner call intercepted under Algorithm 2.
	if got := srvD.Counter(obs.InterceptAlgo2); got != n {
		t.Errorf("server intercept.algo2 = %d, want %d", got, n)
	}
	// Receive messages are written... (one incoming record per call)
	if got := srvD.Counter(obs.RecIncoming); got != n {
		t.Errorf("server rec.incoming = %d, want %d", got, n)
	}
	// ...but never forced at arrival.
	if got := srvD.Counter(obs.ForceAtIncoming); got != 0 {
		t.Errorf("server force.at_incoming = %d, want 0 (receives are unforced)", got)
	}
	// Message 2 produces no record of any shape — the reply send is a
	// pure force of what came before.
	if got := srvD.Counter(obs.RecReplyContent) + srvD.Counter(obs.RecReplySent); got != 0 {
		t.Errorf("server logged %d reply records, want 0 under Algorithm 2", got)
	}
	if got := srvD.Counter(obs.ForceAtReply); got != n {
		t.Errorf("server force.at_reply = %d, want %d", got, n)
	}

	// Client side: no send-message log writes, ever.
	if got := cliD.Counter(obs.RecOutgoing); got != 0 {
		t.Errorf("client rec.outgoing = %d, want 0 (sends are not written)", got)
	}
	// Message 4 (outgoing reply) is written once per call, unforced.
	if got := cliD.Counter(obs.RecOutgoingReply); got != n {
		t.Errorf("client rec.outgoing_reply = %d, want %d", got, n)
	}
	if got := cliD.Counter(obs.ForceAtOutgoingReply); got != 0 {
		t.Errorf("client force.at_outgoing_reply = %d, want 0", got)
	}
	// The send-site forces that did reach the device: all inner calls
	// except the first, whose log was already clean from the incoming
	// envelope's Algorithm 3 force.
	if got := cliD.Counter(obs.ForceAtSend); got != n-1 {
		t.Errorf("client force.at_send = %d, want %d", got, n-1)
	}
}

// TestAlgorithm5InvariantByCounters: optimized persistent→read-only
// (Algorithm 5). The read-only server does nothing; the persistent
// caller skips the force when calling but still logs the unrepeatable
// reply (message 4) — without forcing it.
func TestAlgorithm5InvariantByCounters(t *testing.T) {
	u := newTestUniverse(t)
	cliReg, srvReg := obs.NewRegistry(), obs.NewRegistry()
	cliCfg := testConfig()
	cliCfg.Metrics = cliReg
	srvCfg := testConfig()
	srvCfg.Metrics = srvReg
	_, pc := startProc(t, u, "evo1", "cli", cliCfg)
	_, ps := startProc(t, u, "evo2", "srv", srvCfg)
	defer pc.Close()
	defer ps.Close()
	hs, err := ps.Create("Server", &Counter{}, WithType(msg.ReadOnly))
	if err != nil {
		t.Fatal(err)
	}
	hb, err := pc.Create("Batcher", &Batcher{Server: NewRef(hs.URI())})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(hb.URI())
	callInt(t, ref, "RunBatchNoArg", "Get", 1) // warm up: learn the server type

	const n = 8
	var srvD obs.Snapshot
	cliD := diffDuring(cliReg, func() {
		srvD = diffDuring(srvReg, func() {
			callInt(t, ref, "RunBatchNoArg", "Get", n)
		})
	})

	// Server side: interception classified read-only; nothing logged,
	// nothing forced, no last-call bookkeeping.
	if got := srvD.Counter(obs.InterceptReadOnly); got != n {
		t.Errorf("server intercept.read_only = %d, want %d", got, n)
	}
	if got := srvD.Counter(obs.WALAppends); got != 0 {
		t.Errorf("server wal.appends = %d, want 0 (read-only server logs nothing)", got)
	}
	if got := srvD.Counter(obs.WALForces); got != 0 {
		t.Errorf("server wal.forces = %d, want 0", got)
	}

	// Client side: the send force is elided (Algorithm 5)...
	if got := cliD.Counter(obs.ElideReadOnly); got != n {
		t.Errorf("client elide.read_only = %d, want %d", got, n)
	}
	if got := cliD.Counter(obs.ForceAtSend); got != 0 {
		t.Errorf("client force.at_send = %d, want 0", got)
	}
	// ...but the reply is logged (unrepeatable) without a force.
	if got := cliD.Counter(obs.RecOutgoingReply); got != n {
		t.Errorf("client rec.outgoing_reply = %d, want %d", got, n)
	}
	if got := cliD.Counter(obs.ForceAtOutgoingReply); got != 0 {
		t.Errorf("client force.at_outgoing_reply = %d, want 0", got)
	}
	if got := cliD.Counter(obs.RecOutgoing); got != 0 {
		t.Errorf("client rec.outgoing = %d, want 0", got)
	}
}

// TestEveryMetricMoves: every metric internal/obs/names.go declares
// moves under a short workload of the runtime's own — a number nothing
// moves measures nothing. One registry is shared by every scenario (each
// universe, process, log and flight recorder below reports into it); at
// the end the test goes through the whole catalogue and names each
// metric still at zero. A new metric needs a scenario here that moves
// it.
func TestEveryMetricMoves(t *testing.T) {
	reg := obs.NewRegistry()
	t.Run("calls", func(t *testing.T) { moveCalls(t, reg) })
	t.Run("checkpoint", func(t *testing.T) { moveCheckpoint(t, reg) })
	t.Run("restart", func(t *testing.T) { moveRestart(t, reg) })
	t.Run("dead-server", func(t *testing.T) { moveDeadServer(t, reg) })
	t.Run("group-commit", func(t *testing.T) { moveGroupCommit(t, reg) })
	t.Run("crash-discard", func(t *testing.T) { moveCrashDiscard(t, reg) })

	snap := reg.Snapshot()
	for _, name := range declaredMetrics(t) {
		if snap.Counters[name] == 0 && snap.Histograms[name].Count == 0 {
			t.Errorf("%s never moved", name)
		}
	}
}

// declaredMetrics returns the string constants of internal/obs/names.go,
// sorted: the catalogue, read from the source.
func declaredMetrics(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../obs/names.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.CONST {
			ast.Inspect(gd, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					names = append(names, name)
				}
				return true
			})
		}
	}
	sort.Strings(names)
	return names
}

// metricsUniverse is a universe on clk whose processes, transport and
// flight recorder all report to reg. The recorder's ring holds eight
// spans, so it overwrites.
func metricsUniverse(t *testing.T, reg *obs.Registry, clk disk.Clock) *Universe {
	t.Helper()
	rec := trace.NewRecorder(trace.Options{
		Name:    t.Name(),
		Size:    8,
		Metrics: reg,
		Now:     func() int64 { return clk.Now().UnixNano() },
	})
	u, err := NewUniverse(UniverseConfig{Dir: t.TempDir(), Clock: clk, Metrics: reg, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Shutdown)
	return u
}

// create creates obj under name in p and returns its URI.
func create(t *testing.T, p *Process, name string, obj any, opts ...CreateOption) ids.URI {
	t.Helper()
	h, err := p.Create(name, obj, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return h.URI()
}

// moveCalls: optimized and baseline persistent→persistent calls from
// external callers, to persistent, functional, read-only and
// subordinate components, and a multi-call fan-out.
func moveCalls(t *testing.T, reg *obs.Registry) {
	u := metricsUniverse(t, reg, disk.NewRealClock(1))
	base := testConfig()
	base.LogMode = LogBaseline
	multi := testConfig()
	multi.MultiCall = true
	_, pc := startProc(t, u, "evo1", "cli", testConfig())
	_, ps := startProc(t, u, "evo2", "srv", testConfig())
	_, pb := startProc(t, u, "evo3", "base", base)
	_, pm := startProc(t, u, "evo4", "multi", multi)

	counter := create(t, ps, "Counter", &Counter{})
	pure := create(t, ps, "Pure", &Pure{}, WithType(msg.Functional))
	ro := create(t, ps, "RO", &Counter{}, WithType(msg.ReadOnly))
	cycler := create(t, ps, "Cycler", &Cycler{})
	for _, c := range []struct {
		server ids.URI
		method string
	}{{counter, "Add"}, {pure, "Double"}} {
		b := create(t, pc, "Batcher-"+c.method, &Batcher{Server: NewRef(c.server)})
		callInt(t, u.ExternalRef(b), "RunBatch", c.method, 3, 1)
	}
	b := create(t, pc, "Batcher-RO", &Batcher{Server: NewRef(ro)})
	callInt(t, u.ExternalRef(b), "RunBatchNoArg", "Get", 3)
	callInt(t, u.ExternalRef(cycler), "Put", 1)

	bc := create(t, pb, "Counter", &Counter{})
	relay := create(t, pb, "Relay", &Relay{Server: NewRef(bc)})
	callInt(t, u.ExternalRef(relay), "Forward", 1)

	var refs [3]*Ref
	for i := range refs {
		refs[i] = NewRef(create(t, ps, fmt.Sprintf("C%d", i), &Counter{}))
	}
	fan := create(t, pm, "Fan", &Fan{A: refs[0], B: refs[1], C: refs[2]})
	callInt(t, u.ExternalRef(fan), "Spread", 1)
}

// moveCheckpoint: state saves, checkpoints and a trim on small segments,
// with a persistent caller, so the last-call replies reach the log.
func moveCheckpoint(t *testing.T, reg *obs.Registry) {
	u := metricsUniverse(t, reg, disk.NewRealClock(1))
	cfg := testConfig()
	cfg.SaveStateEvery = 10
	cfg.CheckpointEvery = 20
	_, pc := startProc(t, u, "evo1", "cli", testConfig())
	_, p := startProc(t, u, "evo2", "srv", cfg)
	p.SetLogSegmentBytes(2 << 10)
	b := create(t, pc, "Batcher", &Batcher{Server: NewRef(create(t, p, "Counter", &Counter{}))})
	callInt(t, u.ExternalRef(b), "RunBatch", "Add", 200, 1)
	if err := p.TrimLog(); err != nil {
		t.Fatal(err)
	}
}

// moveRestart: a crash, an eager restart, a second crash and a lazy
// restart whose worker is held in G's replay while a call touches C.
// R's logged reply suppresses its send on replay.
func moveRestart(t *testing.T, reg *obs.Registry) {
	u := metricsUniverse(t, reg, disk.NewRealClock(1))
	_, far := startProc(t, u, "evo2", "far", testConfig())
	m, p := startProc(t, u, "evo1", "srv", testConfig())
	gate := create(t, p, "G", &Gate{}) // first: the worker's first replay
	c := create(t, p, "C", &Counter{})
	r := create(t, p, "R", &Relay{Server: NewRef(create(t, far, "C", &Counter{}))})
	for round := 1; round <= 3; round++ {
		callInt(t, u.ExternalRef(gate), "Add", round)
		callInt(t, u.ExternalRef(c), "Add", round)
		callInt(t, u.ExternalRef(r), "Forward", round)
	}
	p.Crash()

	p2, err := m.StartProcess("srv", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.DrainRecovery(); err != nil {
		t.Fatal(err)
	}
	p2.Crash()

	var p3 *Process
	release := holdGate(t, func() {
		if p3, err = m.StartProcess("srv", lazyCfg()); err != nil {
			t.Fatal(err)
		}
	})
	if got := callInt(t, u.ExternalRef(c), "Add", 0); got != 6 {
		t.Errorf("C after a lazy restart = %d, want 6", got)
	}
	release()
	if err := p3.DrainRecovery(); err != nil {
		t.Fatal(err)
	}
}

// moveDeadServer: a persistent caller's call to a crashed server is
// retried and its sends fail until the caller gives up.
func moveDeadServer(t *testing.T, reg *obs.Registry) {
	u := metricsUniverse(t, reg, disk.NewRealClock(1))
	cfg := testConfig()
	cfg.RetryLimit = 3
	cfg.RetryInterval = time.Millisecond
	_, pd := startProc(t, u, "evo1", "dead", testConfig())
	_, pr := startProc(t, u, "evo2", "relay", cfg)
	relay := create(t, pr, "Relay", &Relay{Server: NewRef(create(t, pd, "C", &Counter{}))})
	pd.Crash()
	if _, err := u.ExternalRef(relay).Call("Forward", 1); err == nil {
		t.Error("a call to a crashed server succeeded")
	}
}

// moveCrashDiscard: a crash whose log discard fails. The log rolls into
// a segment no force covers, and that segment's path becomes a
// non-empty directory, which os.Remove refuses even to root.
func moveCrashDiscard(t *testing.T, reg *obs.Registry) {
	u := metricsUniverse(t, reg, disk.NewRealClock(1))
	_, p := startProc(t, u, "evo1", "srv", testConfig())
	p.SetLogSegmentBytes(64)
	for n := p.LogStats().Segments; p.LogStats().Segments == n; {
		if _, err := p.appendRec(&endCkptRec{BeginLSN: 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(p.LogDir(), "*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	unforced := segs[len(segs)-1] // names are zero-padded start LSNs
	if err := os.Remove(unforced); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(unforced, "pin"), 0o755); err != nil {
		t.Fatal(err)
	}
	p.Crash()
}

// moveGroupCommit: concurrent committers on a log with the commit
// window on, until one force request rides a sync it did not issue.
func moveGroupCommit(t *testing.T, reg *obs.Registry) {
	l, err := wal.OpenSet(filepath.Join(t.TempDir(), "proc.log"), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetMetrics(reg)
	l.StartGroupCommit(wal.GroupCommitConfig{Enabled: true}, disk.NewVirtualClock())
	for round := 0; round < 50 && reg.Snapshot().Counter(obs.WALGroupSyncsSaved) == 0; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					lsn, err := l.Append(1, []byte("rider"))
					if err == nil {
						_, err = l.SyncTo(lsn)
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
