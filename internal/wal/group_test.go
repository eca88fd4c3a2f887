package wal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/obs"
)

// TestSyncToCoveredLSNIsClean pins the LSN-aware force contract: a
// record already covered by the synced watermark costs nothing even
// when the log tail is dirty — that is the whole point of SyncTo over
// the all-or-nothing SyncAll.
func TestSyncToCoveredLSNIsClean(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	a, err := l.Append(1, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.SyncTo(a); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Forces; got != 1 {
		t.Fatalf("Forces = %d after first SyncTo, want 1", got)
	}
	// Dirty the tail; a's force must stay free.
	if _, err := l.Append(1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	out, err := l.SyncTo(a)
	if err != nil {
		t.Fatal(err)
	}
	if out != SyncClean {
		t.Errorf("SyncTo(covered) = %v, want SyncClean", out)
	}
	if got := l.Stats().Forces; got != 1 {
		t.Errorf("Forces = %d after covered SyncTo with dirty tail, want still 1", got)
	}
	// SyncAll still covers the whole tail.
	if _, err := l.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Forces; got != 2 {
		t.Errorf("Forces = %d after tail Force, want 2", got)
	}
}

func TestSyncToNilIsClean(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	if _, err := l.Append(1, []byte("dirty tail")); err != nil {
		t.Fatal(err)
	}
	out, err := l.SyncTo(ids.NilLSN)
	if err != nil {
		t.Fatal(err)
	}
	if out != SyncClean {
		t.Errorf("SyncTo(nil) = %v, want SyncClean", out)
	}
	if got := l.Stats().Forces; got != 0 {
		t.Errorf("Forces = %d after nil SyncTo, want 0", got)
	}
}

func TestSyncedLSNTracksForces(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	a, err := l.Append(1, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if got := l.SyncedLSN(); got > a {
		t.Errorf("SyncedLSN = %v before any force, covers unforced %v", got, a)
	}
	if _, err := l.SyncTo(a); err != nil {
		t.Fatal(err)
	}
	if got := l.SyncedLSN(); got <= a {
		t.Errorf("SyncedLSN = %v after SyncTo(%v), want > %v", got, a, a)
	}
}

// gate parks callers until released and tells the test when the first
// one arrived: it pins "the leader is in its commit window" (gateClock)
// or "the device sync is in flight" (gateModel) open for as long as a
// test needs.
type gate struct {
	entered chan struct{} // closed when the first caller arrives
	release chan struct{} // callers return when this closes
}

func newGate() gate {
	return gate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g gate) pass() {
	select {
	case <-g.entered:
	default:
		close(g.entered)
	}
	<-g.release
}

// awaitEntered fails the test if nobody reaches the gate.
func (g gate) awaitEntered(t *testing.T, what string) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never started", what)
	}
}

// gateClock is a clock whose Sleep is a gate: the commit window stays
// open until the test releases it.
type gateClock struct {
	disk.Clock
	gate
}

func (c gateClock) Sleep(time.Duration) { c.pass() }

// gateModel is a disk model whose Sync is a gate.
type gateModel struct{ gate }

func (m gateModel) Write(int)    {}
func (m gateModel) Sync()        { m.pass() }
func (m gateModel) Name() string { return "gate" }

// windowLog opens a log whose sync leaders hold the commit window on
// clock, accounting to a private registry.
func windowLog(t *testing.T, model disk.Model, clock disk.Clock) (*Log, string, *obs.Registry) {
	t.Helper()
	dir := t.TempDir() + "/proc.log"
	l, err := OpenSet(dir, model, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l.SetMetrics(reg)
	l.StartGroupCommit(GroupCommitConfig{Enabled: true}, clock)
	return l, dir, reg
}

// forceResult is what one SyncTo returned.
type forceResult struct {
	out SyncOutcome
	err error
}

// forceAsync appends payload and forces it from a new goroutine.
func forceAsync(t *testing.T, l *Log, payload string) (ids.LSN, <-chan forceResult) {
	t.Helper()
	lsn, err := l.Append(1, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	res := make(chan forceResult, 1)
	go func() {
		out, err := l.SyncTo(lsn)
		res <- forceResult{out, err}
	}()
	return lsn, res
}

func await(t *testing.T, res <-chan forceResult, what string) forceResult {
	t.Helper()
	select {
	case r := <-res:
		return r
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still blocked", what)
		return forceResult{}
	}
}

// waitFor polls a condition on the log's state under its mutex.
func waitFor(t *testing.T, l *Log, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		ok := cond()
		l.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestGroupCommitLoneCommitterPaysOneWindow: with nobody to combine
// with, a force costs exactly one commit window on the injected clock
// and one device sync, and is a batch of one.
func TestGroupCommitLoneCommitterPaysOneWindow(t *testing.T) {
	clock := disk.NewVirtualClock()
	l, _, reg := windowLog(t, nil, clock)
	defer l.Close()
	start := clock.Now()
	lsn, err := l.Append(1, []byte("alone"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := l.SyncTo(lsn)
	if err != nil || out != SyncIssued {
		t.Fatalf("SyncTo = %v, %v; want SyncIssued, nil", out, err)
	}
	if got := clock.Now().Sub(start); got != commitWindow {
		t.Errorf("clock advanced %v, want one %v window", got, commitWindow)
	}
	if got := l.Stats().Forces; got != 1 {
		t.Errorf("Forces = %d, want 1", got)
	}
	if h := reg.Snapshot().HistogramFor(obs.WALGroupBatchSize); h.Count != 1 || h.Sum != 1 {
		t.Errorf("wal.group.batch_size = %d observations summing to %d, want one batch of 1", h.Count, h.Sum)
	}
}

// TestGroupCommitMidWindowArrivalRidesTheLeader: a committer that
// arrives while the leader holds its window is covered by the leader's
// flush — SyncCombined, no second device sync, a batch of two.
func TestGroupCommitMidWindowArrivalRidesTheLeader(t *testing.T) {
	clock := gateClock{disk.NewVirtualClock(), newGate()}
	l, _, reg := windowLog(t, nil, clock)
	defer l.Close()
	_, leader := forceAsync(t, l, "leader")
	clock.awaitEntered(t, "the commit window")
	_, rider := forceAsync(t, l, "rider")
	waitFor(t, l, "the rider waiting on the leader", func() bool { return l.waiters == 1 })
	time.Sleep(held) // a commit window of known real length
	close(clock.release)

	if r := await(t, leader, "leader"); r.err != nil || r.out != SyncIssued {
		t.Errorf("leader: %v, %v; want SyncIssued, nil", r.out, r.err)
	}
	if r := await(t, rider, "rider"); r.err != nil || r.out != SyncCombined {
		t.Errorf("rider: %v, %v; want SyncCombined, nil", r.out, r.err)
	}
	if got := l.Stats().Forces; got != 1 {
		t.Errorf("Forces = %d, want 1 device sync for both", got)
	}
	snap := reg.Snapshot()
	if h := snap.HistogramFor(obs.WALGroupBatchSize); h.Count != 1 || h.Sum != 2 {
		t.Errorf("wal.group.batch_size = %d observations summing to %d, want one batch of 2", h.Count, h.Sum)
	}
	wait := snap.HistogramFor(obs.WALGroupWaitMicros)
	if wait.Count != 2 {
		t.Errorf("wal.group.wait_micros has %d observations, want leader + rider", wait.Count)
	}
	// The leader waited the window and then synced; only the sync is
	// device time. (Its wait is the longer of the two: it arrived first.)
	if busy := l.Stats().SyncBusyNanos / 1e3; busy+held.Microseconds() > wait.Max+2 {
		t.Errorf("SyncBusyNanos = %dµs with a leader wait of %dµs: the %v commit window was counted as device time",
			busy, wait.Max, held)
	}
}

// held is how long the stopwatch tests keep a leader in its commit
// window, or a rider behind another leader's sync, in real time.
const held = 20 * time.Millisecond

// TestGroupCommitLeaderAfterWaitingSkipsWindow: a request that arrives
// during the device sync with a record the sync does not cover waits
// it out, then leads the next sync at once — the sync it sat through
// was its batching interval, so the clock moves by the first leader's
// window only.
func TestGroupCommitLeaderAfterWaitingSkipsWindow(t *testing.T) {
	clock := disk.NewVirtualClock()
	model := gateModel{newGate()}
	l, _, reg := windowLog(t, model, clock)
	defer l.Close()
	start := clock.Now()
	_, first := forceAsync(t, l, "first")
	model.awaitEntered(t, "the device sync")
	_, second := forceAsync(t, l, "appended after the flush")
	waitFor(t, l, "the second request waiting", func() bool { return l.waiters == 1 })
	time.Sleep(held) // the second request rides the first sync this long
	close(model.release)

	if r := await(t, first, "first leader"); r.err != nil || r.out != SyncIssued {
		t.Errorf("first: %v, %v; want SyncIssued, nil", r.out, r.err)
	}
	if r := await(t, second, "second leader"); r.err != nil || r.out != SyncIssued {
		t.Errorf("second: %v, %v; want SyncIssued, nil (its record missed the first flush)", r.out, r.err)
	}
	if got := l.Stats().Forces; got != 2 {
		t.Errorf("Forces = %d, want 2", got)
	}
	if got := clock.Now().Sub(start); got != commitWindow {
		t.Errorf("clock advanced %v, want %v: only the first leader holds a window", got, commitWindow)
	}
	// The second leader's device time starts when it takes over, not
	// when it arrived: across both forces, waiting exceeds syncing by
	// at least the ride. (The first's window is virtual and instant.)
	snap := reg.Snapshot()
	wait, force := snap.HistogramFor(obs.WALGroupWaitMicros), snap.HistogramFor(obs.WALForceMicros)
	if wait.Sum-force.Sum < held.Microseconds()-2 {
		t.Errorf("wait_micros sum %dµs, force_micros sum %dµs: the %v spent riding the first sync was counted as the second's device time",
			wait.Sum, force.Sum, held)
	}
	if busy := l.Stats().SyncBusyNanos / 1e3; busy > force.Sum+2 || busy < force.Sum-2 {
		t.Errorf("SyncBusyNanos = %dµs, force_micros sum = %dµs; want the same intervals", busy, force.Sum)
	}
}

// TestGroupCommitCloseLetsRequestsComplete is the orderly half of the
// shutdown rule: Close, called while the leader holds its window and a
// rider waits behind it, fails neither — both return nil and both
// records are readable after reopen.
func TestGroupCommitCloseLetsRequestsComplete(t *testing.T) {
	clock := gateClock{disk.NewVirtualClock(), newGate()}
	l, path, _ := windowLog(t, nil, clock)
	leaderLSN, leader := forceAsync(t, l, "leader")
	clock.awaitEntered(t, "the commit window")
	riderLSN, rider := forceAsync(t, l, "rider")
	waitFor(t, l, "the rider waiting on the leader", func() bool { return l.waiters == 1 })

	closing, closed := make(chan struct{}), make(chan error, 1)
	go func() {
		close(closing)
		closed <- l.Close()
	}()
	<-closing
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with the leader still in its window", err)
	case <-time.After(2 * time.Millisecond): // let Close reach its wait; either order must pass
	}
	close(clock.release)

	for name, res := range map[string]<-chan forceResult{"leader": leader, "rider": rider} {
		if r := await(t, res, name); r.err != nil {
			t.Errorf("%s resolved with %v, want nil", name, r.err)
		}
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close still blocked after the window closed")
	}
	l2, err := OpenSet(path, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for _, lsn := range []ids.LSN{leaderLSN, riderLSN} {
		if _, err := l2.Read(lsn); err != nil {
			t.Errorf("acknowledged record %v lost: %v", lsn, err)
		}
	}
}

// TestGroupCommitDiscardFailsRequests is the crash half: Discard
// during the window must fail the leader and the rider with ErrClosed
// instead of acknowledging records it is about to throw away.
func TestGroupCommitDiscardFailsRequests(t *testing.T) {
	clock := gateClock{disk.NewVirtualClock(), newGate()}
	l, path, _ := windowLog(t, nil, clock)
	leaderLSN, leader := forceAsync(t, l, "doomed leader")
	clock.awaitEntered(t, "the commit window")
	riderLSN, rider := forceAsync(t, l, "doomed rider")
	waitFor(t, l, "the rider waiting on the leader", func() bool { return l.waiters == 1 })

	discarded := make(chan error, 1)
	go func() { discarded <- l.Discard() }()
	waitFor(t, l, "the crash", func() bool { return l.closed.Load() })
	close(clock.release)

	for name, res := range map[string]<-chan forceResult{"leader": leader, "rider": rider} {
		if r := await(t, res, name); !errors.Is(r.err, ErrClosed) {
			t.Errorf("%s resolved with %v, want ErrClosed", name, r.err)
		}
	}
	select {
	case err := <-discarded:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Discard still blocked after the leader let go")
	}
	l2, err := OpenSet(path, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for _, lsn := range []ids.LSN{leaderLSN, riderLSN} {
		if _, err := l2.Read(lsn); err == nil {
			t.Errorf("unacknowledged record %v survived the crash", lsn)
		}
	}
}

// ackRec is one acknowledged append: SyncTo returned nil, so the
// record must survive any subsequent crash.
type ackRec struct {
	lsn     ids.LSN
	payload string
}

// TestGroupCommitStressAccounting runs concurrent committers against
// the one force path, window on (virtual clock: deterministic and
// instant) and off, and checks the force-accounting invariant: every
// request is resolved exactly once as a device sync, a saved sync, or
// a clean force — wal.forces + wal.group.syncs_saved +
// wal.clean_forces equals the request count — and the outcomes the
// callers saw (what core's per-site force.at_* counters key off) agree
// with the counters one for one. Run under -race this is also the
// path's data race stress.
func TestGroupCommitStressAccounting(t *testing.T) {
	for _, enabled := range []bool{true, false} {
		t.Run(fmt.Sprintf("window=%v", enabled), func(t *testing.T) {
			l, path := openTemp(t)
			reg := obs.NewRegistry()
			l.SetMetrics(reg)
			l.StartGroupCommit(GroupCommitConfig{Enabled: enabled}, disk.NewVirtualClock())
			const workers, iters = 8, 40

			acked := make([][]ackRec, workers)
			outcomes := make([][3]int64, workers)
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						payload := fmt.Sprintf("w%d-%d", g, i)
						lsn, err := l.Append(1, []byte(payload))
						if err != nil {
							t.Errorf("worker %d: Append: %v", g, err)
							return
						}
						out, err := l.SyncTo(lsn)
						if err != nil {
							t.Errorf("worker %d: SyncTo: %v", g, err)
							return
						}
						outcomes[g][out]++
						acked[g] = append(acked[g], ackRec{lsn, payload})
					}
				}(g)
			}
			wg.Wait()

			var seen [3]int64
			for _, o := range outcomes {
				for k, n := range o {
					seen[k] += n
				}
			}
			snap := reg.Snapshot()
			forces := snap.Counter(obs.WALForces)
			saved := snap.Counter(obs.WALGroupSyncsSaved)
			clean := snap.Counter(obs.WALCleanForces)
			if total := forces + saved + clean; total != workers*iters {
				t.Errorf("force accounting: forces %d + saved %d + clean %d = %d, want %d",
					forces, saved, clean, total, workers*iters)
			}
			if seen[SyncIssued] != forces || seen[SyncCombined] != saved || seen[SyncClean] != clean {
				t.Errorf("outcomes issued/combined/clean = %d/%d/%d, counters say %d/%d/%d",
					seen[SyncIssued], seen[SyncCombined], seen[SyncClean], forces, saved, clean)
			}
			if forces == 0 {
				t.Error("no device syncs at all")
			}
			// Every device sync reports its batch, and the batches account
			// for every request that needed one.
			if h := snap.HistogramFor(obs.WALGroupBatchSize); h.Count != forces || h.Sum != forces+saved {
				t.Errorf("wal.group.batch_size: %d batches holding %d requests, want %d holding %d",
					h.Count, h.Sum, forces, forces+saved)
			}

			// Every acknowledged record survives a clean close and reopen.
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, err := OpenSet(path, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			checkAcked(t, l2, acked)
		})
	}
}

// TestGroupCommitCrashDurability is the crash property: inject a crash
// (Discard) in the middle of a concurrent commit storm; afterwards
// every record whose SyncTo was acknowledged before the crash must be
// readable on reopen. Lost in-flight requests must fail, not hang.
func TestGroupCommitCrashDurability(t *testing.T) {
	l, path, _ := windowLog(t, nil, disk.NewVirtualClock())
	const workers, iters = 8, 60

	acked := make([][]ackRec, workers)
	var acks atomic.Int64
	storm, crashed := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				payload := fmt.Sprintf("w%d-%d", g, i)
				lsn, err := l.Append(1, []byte(payload))
				if err != nil {
					return // crashed under us: unacked, nothing to check
				}
				if _, err := l.SyncTo(lsn); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("worker %d: SyncTo: %v", g, err)
					}
					return
				}
				acked[g] = append(acked[g], ackRec{lsn, payload})
				if acks.Add(1) == workers*iters/10 {
					close(storm)
				}
			}
		}(g)
	}
	go func() {
		defer close(crashed)
		<-storm // crash mid-storm: a tenth of the requests acknowledged
		if err := l.Discard(); err != nil {
			t.Errorf("Discard: %v", err)
		}
	}()
	wg.Wait()
	<-crashed

	l2, err := OpenSet(path, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	checkAcked(t, l2, acked)
}

func checkAcked(t *testing.T, l *Log, acked [][]ackRec) {
	t.Helper()
	n := 0
	for g, list := range acked {
		for _, a := range list {
			rec, err := l.Read(a.lsn)
			if err != nil {
				t.Fatalf("worker %d: acked record %v lost: %v", g, a.lsn, err)
			}
			if string(rec.Payload) != a.payload {
				t.Fatalf("worker %d: record %v = %q, want %q", g, a.lsn, rec.Payload, a.payload)
			}
			n++
		}
	}
	if n == 0 {
		t.Error("no records were acknowledged before the crash")
	}
}

// TestGroupCommitDisabledZeroValue: the zero GroupCommitConfig leaves
// the window off — a lone force syncs at once and the clock stays put.
func TestGroupCommitDisabledZeroValue(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	clock := disk.NewVirtualClock()
	start := clock.Now()
	l.StartGroupCommit(GroupCommitConfig{}, clock)
	lsn, err := l.Append(1, []byte("direct"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.SyncTo(lsn); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Forces; got != 1 {
		t.Errorf("Forces = %d, want 1", got)
	}
	if !clock.Now().Equal(start) {
		t.Errorf("zero-value config held a commit window: clock advanced %v", clock.Now().Sub(start))
	}
}

// TestAppendNotBlockedByInFlightSync pins the mutex-release fix: while
// a device sync is in flight, Append must proceed — the log mutex is
// not held across the device sync. The gate model holds the sync open
// until the concurrent append has demonstrably completed.
func TestAppendNotBlockedByInFlightSync(t *testing.T) {
	model := gateModel{newGate()}
	l, err := OpenSet(t.TempDir()+"/slow.log", model, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(1, []byte("to sync")); err != nil {
		t.Fatal(err)
	}
	syncDone := make(chan struct{})
	go func() {
		defer close(syncDone)
		if _, err := l.SyncAll(); err != nil {
			t.Errorf("Force: %v", err)
		}
	}()
	model.awaitEntered(t, "the device sync")
	appendDone := make(chan struct{})
	go func() {
		defer close(appendDone)
		if _, err := l.Append(1, []byte("concurrent")); err != nil {
			t.Errorf("Append during sync: %v", err)
		}
	}()
	select {
	case <-appendDone: // appended while the sync was provably in flight
	case <-time.After(5 * time.Second):
		close(model.release)
		t.Fatal("Append blocked behind the in-flight device sync")
	}
	close(model.release)
	<-syncDone
}
