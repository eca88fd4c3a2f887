// Benchmarks: one testing.B target per paper table and figure, plus
// micro-benchmarks of the runtime's building blocks.
//
// The cmd/phoenix-bench harness regenerates the paper's tables with
// simulated 7200-RPM disks (model-time milliseconds). The benchmarks
// here run the same workloads on the real file system (disk.HostModel)
// and measure what the Go implementation itself costs per operation;
// the per-call log force and append counts — the quantities the
// paper's optimizations reduce — are reported as custom metrics, so
// the optimization structure is visible in ns-scale results too.
//
//	go test -bench=. -benchmem
package phoenix_test

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	phoenix "repro"
	"repro/internal/bookstore"
	"repro/internal/disk"
	"repro/internal/wal"
)

// benchWorld hosts a client and a server process on the host fs.
func benchWorld(b *testing.B, cfg phoenix.Config) (*phoenix.Universe, *phoenix.Process, *phoenix.Process) {
	b.Helper()
	u, err := phoenix.NewUniverse(phoenix.UniverseConfig{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	mc, err := u.AddMachine("evo1")
	if err != nil {
		b.Fatal(err)
	}
	ms, err := u.AddMachine("evo2")
	if err != nil {
		b.Fatal(err)
	}
	pc, err := mc.StartProcess("cli", cfg)
	if err != nil {
		b.Fatal(err)
	}
	ps, err := ms.StartProcess("srv", cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pc.Close(); ps.Close() })
	return u, pc, ps
}

// Counter is the benchmark server component.
type Counter struct{ N int }

// Add mutates state.
func (c *Counter) Add(d int) (int, error) { c.N += d; return c.N, nil }

// Get reads state.
func (c *Counter) Get() (int, error) { return c.N, nil }

// Forwarder is the benchmark client component.
type Forwarder struct {
	Server *phoenix.Ref
}

// Forward relays one call.
func (f *Forwarder) Forward(d int) (int, error) {
	res, err := f.Server.Call("Add", d)
	if err != nil {
		return 0, err
	}
	return res[0].(int), nil
}

// Probe relays one read.
func (f *Forwarder) Probe() (int, error) {
	res, err := f.Server.Call("Get")
	if err != nil {
		return 0, err
	}
	return res[0].(int), nil
}

// Pure is the functional server.
type Pure struct{}

// Double is pure.
func (Pure) Double(x int) (int, error) { return 2 * x, nil }

func reportForces(b *testing.B, procs ...*phoenix.Process) {
	var forces, appends int64
	for _, p := range procs {
		forces += p.LogStats().Forces
		appends += p.LogStats().Appends
	}
	b.ReportMetric(float64(forces)/float64(b.N), "forces/op")
	b.ReportMetric(float64(appends)/float64(b.N), "appends/op")
}

func cfgFor(mode phoenix.LogMode, specialized bool) phoenix.Config {
	return phoenix.Config{
		LogMode:          mode,
		SpecializedTypes: specialized,
		RetryInterval:    time.Millisecond,
		RetryLimit:       100,
	}
}

// benchP2P drives persistent→persistent calls (Table 4's last rows).
func benchP2P(b *testing.B, mode phoenix.LogMode) {
	u, pc, ps := benchWorld(b, cfgFor(mode, mode == phoenix.LogOptimized))
	hs, err := ps.Create("Counter", &Counter{})
	if err != nil {
		b.Fatal(err)
	}
	hc, err := pc.Create("Fwd", &Forwarder{Server: phoenix.NewRef(hs.URI())})
	if err != nil {
		b.Fatal(err)
	}
	ref := u.ExternalRef(hc.URI())
	if _, err := ref.Call("Forward", 1); err != nil {
		b.Fatal(err)
	}
	pc.ResetLogStats()
	ps.ResetLogStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ref.Call("Forward", 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportForces(b, pc, ps)
}

// BenchmarkTable4_PersistentToPersistent_Baseline is Table 4 row
// "Persistent→Persistent (baseline)": every message logged and forced.
func BenchmarkTable4_PersistentToPersistent_Baseline(b *testing.B) {
	benchP2P(b, phoenix.LogBaseline)
}

// BenchmarkTable4_PersistentToPersistent_Optimized is Table 4 row
// "Persistent→Persistent (optimized)": Algorithm 2.
func BenchmarkTable4_PersistentToPersistent_Optimized(b *testing.B) {
	benchP2P(b, phoenix.LogOptimized)
}

// benchE2P drives external→persistent calls (Algorithm 3).
func benchE2P(b *testing.B, mode phoenix.LogMode) {
	u, _, ps := benchWorld(b, cfgFor(mode, mode == phoenix.LogOptimized))
	hs, err := ps.Create("Counter", &Counter{})
	if err != nil {
		b.Fatal(err)
	}
	ref := u.ExternalRef(hs.URI())
	if _, err := ref.Call("Add", 1); err != nil {
		b.Fatal(err)
	}
	ps.ResetLogStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ref.Call("Add", 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportForces(b, ps)
}

// BenchmarkTable4_ExternalToPersistent_Baseline is Table 4 row
// "External→Persistent (baseline)".
func BenchmarkTable4_ExternalToPersistent_Baseline(b *testing.B) {
	benchE2P(b, phoenix.LogBaseline)
}

// BenchmarkTable4_ExternalToPersistent_Optimized is Table 4 row
// "External→Persistent (optimized)": long/short records, same forces.
func BenchmarkTable4_ExternalToPersistent_Optimized(b *testing.B) {
	benchE2P(b, phoenix.LogOptimized)
}

// benchSpecialized drives a persistent client against a specialized
// server (Table 5 rows).
func benchSpecialized(b *testing.B, serverObj any, opts []phoenix.CreateOption, method string, args ...any) {
	u, pc, ps := benchWorld(b, cfgFor(phoenix.LogOptimized, true))
	hs, err := ps.Create("Server", serverObj, opts...)
	if err != nil {
		b.Fatal(err)
	}
	hc, err := pc.Create("Fwd", &Forwarder{Server: phoenix.NewRef(hs.URI())})
	if err != nil {
		b.Fatal(err)
	}
	ref := u.ExternalRef(hc.URI())
	if _, err := ref.Call(method, args...); err != nil {
		b.Fatal(err)
	}
	pc.ResetLogStats()
	ps.ResetLogStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ref.Call(method, args...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportForces(b, pc, ps)
}

// BenchmarkTable5_PersistentToFunctional is Table 5 row
// "Persistent→Functional": Algorithm 4, no logging anywhere for the
// inner call (the envelope still logs at the client).
func BenchmarkTable5_PersistentToFunctional(b *testing.B) {
	// Forwarder.Forward calls Add; give Pure an Add-compatible method
	// by benchmarking through Probe→Get instead.
	benchSpecialized(b, &Counter{}, []phoenix.CreateOption{phoenix.WithType(phoenix.Functional)}, "Probe")
}

// BenchmarkTable5_ReadOnlyMethod is Table 5 row "Persistent→Persistent
// (read-only methods)": Algorithm 5 via the method attribute.
func BenchmarkTable5_ReadOnlyMethod(b *testing.B) {
	benchSpecialized(b, &Counter{}, []phoenix.CreateOption{phoenix.WithReadOnlyMethods("Get")}, "Probe")
}

// BenchmarkTable5_PersistentToReadOnly is Table 5 row
// "Persistent→Read-only".
func BenchmarkTable5_PersistentToReadOnly(b *testing.B) {
	benchSpecialized(b, &Counter{}, []phoenix.CreateOption{phoenix.WithType(phoenix.ReadOnly)}, "Probe")
}

// SubHost hosts a subordinate for the Table 5 subordinate row.
type SubHost struct {
	Total int
	ctx   *phoenix.Ctx
}

// AttachContext receives the context handle.
func (h *SubHost) AttachContext(cx *phoenix.Ctx) { h.ctx = cx }

// BatchSub calls the subordinate n times.
func (h *SubHost) BatchSub(n int) (int, error) {
	sub, _ := h.ctx.Subordinate("vault")
	for i := 0; i < n; i++ {
		res, err := sub.Call("Add", 1)
		if err != nil {
			return 0, err
		}
		h.Total = res[0].(int)
	}
	return h.Total, nil
}

// BenchmarkTable5_PersistentToSubordinate is Table 5 row
// "Persistent→Subordinate": a direct, unintercepted, unlogged call
// (paper: 3.44e-5 ms). One driving call per b.N inner calls.
func BenchmarkTable5_PersistentToSubordinate(b *testing.B) {
	u, _, ps := benchWorld(b, cfgFor(phoenix.LogOptimized, true))
	h, err := ps.Create("SubHost", &SubHost{}, phoenix.WithSubordinate("vault", &Counter{}))
	if err != nil {
		b.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	if _, err := ref.Call("BatchSub", 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := ref.Call("BatchSub", b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFigure9_UnbufferedWrite is Figure 9 in virtual time: each
// op is one 1 KB unbuffered write on the 7200-RPM model; the custom
// metric is the model-time cost (paper: ~8.5 ms).
func BenchmarkFigure9_UnbufferedWrite(b *testing.B) {
	clk := phoenix.NewVirtualClock()
	d := phoenix.NewSimDisk(phoenix.DefaultDiskParams(), clk)
	d.Write(1024)
	start := clk.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Write(1024)
	}
	b.StopTimer()
	per := clk.Now().Sub(start) / time.Duration(b.N)
	b.ReportMetric(float64(per)/1e6, "model-ms/op")
}

// BenchmarkTable6_SaveStateOnCall is Table 6's "save state on call":
// the cost of serializing the component and appending a context state
// record per call (no force).
func BenchmarkTable6_SaveStateOnCall(b *testing.B) {
	cfg := cfgFor(phoenix.LogOptimized, true)
	cfg.SaveStateEvery = 1
	u, _, ps := benchWorld(b, cfg)
	hs, err := ps.Create("Counter", &Counter{})
	if err != nil {
		b.Fatal(err)
	}
	ref := u.ExternalRef(hs.URI())
	if _, err := ref.Call("Add", 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ref.Call("Add", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRecovery measures crash recovery for a log of n calls
// (Table 7): each benchmark op is one full process recovery.
func benchRecovery(b *testing.B, n int, fromState bool) {
	u, err := phoenix.NewUniverse(phoenix.UniverseConfig{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	m, err := u.AddMachine("evo1")
	if err != nil {
		b.Fatal(err)
	}
	cfg := cfgFor(phoenix.LogOptimized, true)
	p, err := m.StartProcess("srv", cfg)
	if err != nil {
		b.Fatal(err)
	}
	h, err := p.Create("Counter", &Counter{})
	if err != nil {
		b.Fatal(err)
	}
	if fromState {
		if err := h.SaveState(); err != nil {
			b.Fatal(err)
		}
	}
	ref := u.ExternalRef(h.URI())
	for i := 0; i < n; i++ {
		if _, err := ref.Call("Add", 1); err != nil {
			b.Fatal(err)
		}
	}
	p.Crash()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p2, err := m.StartProcess("srv", cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := mustCounter(b, p2); got != n {
			b.Fatalf("recovered N = %d, want %d", got, n)
		}
		p2.Crash() // crash again so the next iteration recovers again
		b.StartTimer()
	}
}

func mustCounter(b *testing.B, p *phoenix.Process) int {
	b.Helper()
	h, ok := p.Lookup("Counter")
	if !ok {
		b.Fatal("Counter missing after recovery")
	}
	return h.Object().(*Counter).N
}

// BenchmarkTable7_Recovery regenerates Table 7: recovery time vs
// number of calls replayed, from creation and from a state record.
func BenchmarkTable7_Recovery(b *testing.B) {
	for _, n := range []int{0, 1000, 2000, 4000} {
		b.Run(fmt.Sprintf("fromCreation/calls=%d", n), func(b *testing.B) {
			benchRecovery(b, n, false)
		})
		b.Run(fmt.Sprintf("fromState/calls=%d", n), func(b *testing.B) {
			benchRecovery(b, n, true)
		})
	}
}

// BenchmarkTable7_RestartImage is the census a restart change starts
// from (make profile-restart): the image of the benchmark's restart-mem
// workload — 64 Counter contexts serving 6,000 Add(1) calls spread by a
// seeded generator, the even contexts' state saved and a process
// checkpoint taken at call 3,000, then a crash — restarted eagerly and
// lazily. One op is one restart up to the drained backlog; putting the
// pristine image back is outside the timer. The RecoveryStats of the
// last restart are logged — the counts repeat exactly — with the
// restarts' allocations (inside the timer) per replayed call.
func BenchmarkTable7_RestartImage(b *testing.B) {
	const contexts, calls = 64, 6000
	img := filepath.Join(b.TempDir(), "img")
	u, err := phoenix.NewUniverse(phoenix.UniverseConfig{Dir: img})
	if err != nil {
		b.Fatal(err)
	}
	m, err := u.AddMachine("evo1")
	if err != nil {
		b.Fatal(err)
	}
	cfg := cfgFor(phoenix.LogOptimized, true)
	p, err := m.StartProcess("srv", cfg)
	if err != nil {
		b.Fatal(err)
	}
	var handles [contexts]*phoenix.Handle
	var refs [contexts]*phoenix.Ref
	var model [contexts]int
	for i := range handles {
		if handles[i], err = p.Create(fmt.Sprintf("C%d", i), &Counter{}); err != nil {
			b.Fatal(err)
		}
		refs[i] = u.ExternalRef(handles[i].URI())
	}
	pick := rand.New(rand.NewSource(1))
	for c := 0; c < calls; c++ {
		if c == calls/2 {
			for i := 0; i < contexts; i += 2 {
				if err := handles[i].SaveState(); err != nil {
					b.Fatal(err)
				}
			}
			if err := p.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		i := pick.Intn(contexts)
		model[i]++
		if _, err := refs[i].Call("Add", 1); err != nil {
			b.Fatal(err)
		}
	}
	logBytes := p.LogStats().BytesWritten
	p.Crash()
	u.Shutdown()

	for _, mode := range []phoenix.RecoveryMode{phoenix.RecoveryEager, phoenix.RecoveryLazy} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := cfg
			cfg.Recovery = phoenix.RecoveryConfig{Mode: mode}
			live := filepath.Join(b.TempDir(), "live")
			var stats phoenix.RecoveryStats
			var touchReads int64
			var mallocs uint64 // inside the timer, all restarts
			var ms0, ms1 runtime.MemStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := os.RemoveAll(live); err != nil {
					b.Fatal(err)
				}
				copyTree(b, img, live)
				u, err := phoenix.NewUniverse(phoenix.UniverseConfig{Dir: live})
				if err != nil {
					b.Fatal(err)
				}
				m, err := u.AddMachine("evo1")
				if err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&ms0)
				b.StartTimer()
				p, err := m.StartProcess("srv", cfg)
				if err == nil {
					err = p.DrainRecovery()
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms1)
				mallocs += ms1.Mallocs - ms0.Mallocs
				if err != nil {
					b.Fatal(err)
				}
				for i, want := range model {
					if h, ok := p.Lookup(fmt.Sprintf("C%d", i)); !ok || h.Object().(*Counter).N != want {
						b.Fatalf("C%d did not recover to %d", i, want)
					}
				}
				stats, _ = p.LastRecovery()
				if i == b.N-1 {
					// What a first touch reads, as a count: C1 saved no
					// state, so its chain runs back to its creation. Its
					// restart record is read here too (a touch finds it
					// decoded by Pass 1); the walk is the rest, and the
					// replay reads nothing.
					before := p.LogStats().ReadOps
					if err := p.RecoverContext("C1"); err != nil {
						b.Fatal(err)
					}
					touchReads = p.LogStats().ReadOps - before
				}
				p.Crash()
				u.Shutdown()
			}
			b.Logf("%v restart of a %d-byte log: %d device reads (Pass 1 %d, walk %d), %d bytes read (%.2fx the log), %d records scanned, %d calls replayed (%.2f allocations per replayed call), %d sends suppressed; bringing one context back from its creation by itself, as a first touch does: %d device reads",
				mode, logBytes, stats.LogReads, stats.LogReadsPass1, stats.LogReadsWalk,
				stats.LogBytesRead, float64(stats.LogBytesRead)/float64(logBytes),
				stats.RecordsScanned, stats.CallsReplayed,
				float64(mallocs)/float64(b.N)/float64(stats.CallsReplayed),
				stats.CallsSuppressed, touchReads)
		})
	}
}

// copyTree copies the directory tree at src to dst.
func copyTree(b *testing.B, src, dst string) {
	b.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		target := filepath.Join(dst, strings.TrimPrefix(path, src))
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkContendedAppend measures what holding the commit window
// buys under contention: `clients` external callers
// with one persistent Counter each, all hosted in ONE server process,
// so every call forces the shared log twice (Algorithm 3). One op is
// one call from every client (-benchtime 400x is 400 calls a client);
// calls/s is wall throughput, syncs/call the device syncs the log paid
// per call. TMPDIR picks the device under the log (/dev/shm: a sync
// is free).
func BenchmarkContendedAppend(b *testing.B) {
	for _, clients := range []int{8, 64} {
		for _, window := range []string{"off", "on"} {
			b.Run(fmt.Sprintf("clients=%d/window=%s", clients, window), func(b *testing.B) {
				cfg := cfgFor(phoenix.LogOptimized, true)
				cfg.WAL = phoenix.WALConfig{GroupCommit: phoenix.GroupCommit{Enabled: window == "on"}}
				contendedAppend(b, cfg, clients)
			})
		}
	}
}

func contendedAppend(b *testing.B, cfg phoenix.Config, clients int) {
	u, _, p := benchWorld(b, cfg)
	refs := make([]*phoenix.Ref, clients)
	for i := range refs {
		h, err := p.Create(fmt.Sprintf("C%d", i), &Counter{})
		if err != nil {
			b.Fatal(err)
		}
		refs[i] = u.ExternalRef(h.URI())
		if _, err := refs[i].Call("Add", 0); err != nil {
			b.Fatal(err)
		}
	}
	p.ResetLogStats()
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, ref := range refs {
		wg.Add(1)
		go func(r *phoenix.Ref) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				if _, err := r.Call("Add", 1); err != nil {
					b.Error(err)
					return
				}
			}
		}(ref)
	}
	wg.Wait()
	b.StopTimer()
	calls := float64(clients * b.N)
	b.ReportMetric(calls/b.Elapsed().Seconds(), "calls/s")
	b.ReportMetric(float64(p.LogStats().Forces)/calls, "syncs/call")
}

// BenchmarkTable8_Bookstore regenerates Table 8: one buyer session per
// op at each optimization level, with forces/op reported.
func BenchmarkTable8_Bookstore(b *testing.B) {
	levels := []bookstore.Level{
		bookstore.LevelBaseline,
		bookstore.LevelOptimizedLogging,
		bookstore.LevelSpecialized,
	}
	names := []string{"baseline", "optimized", "specialized"}
	for i, level := range levels {
		b.Run(names[i], func(b *testing.B) {
			u, err := phoenix.NewUniverse(phoenix.UniverseConfig{Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			d, err := bookstore.Deploy(u, "server", level, []string{"alice"})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			buyer := bookstore.NewBuyer(u, d, "alice", "WA")
			if _, err := buyer.RunSession(); err != nil {
				b.Fatal(err)
			}
			d.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := buyer.RunSession(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(d.Forces())/float64(b.N), "forces/op")
		})
	}
}

// FanClient fans one incoming call out to several servers
// (Section 5.5.2's PriceGrabber pattern).
type FanClient struct {
	Servers []string
	ctx     *phoenix.Ctx
}

// AttachContext receives the context handle.
func (f *FanClient) AttachContext(cx *phoenix.Ctx) { f.ctx = cx }

// Fan queries every server once.
func (f *FanClient) Fan(arg int) (int, error) {
	sum := 0
	for _, s := range f.Servers {
		res, err := f.ctx.NewRef(phoenix.URI(s)).Call("Add", arg)
		if err != nil {
			return 0, err
		}
		sum += res[0].(int)
	}
	return sum, nil
}

// BenchmarkMultiCall regenerates Section 5.5.2: per-execution force
// counts for a 4-way fan-out with the multi-call optimization off/on.
func BenchmarkMultiCall(b *testing.B) {
	for _, multi := range []bool{false, true} {
		name := "off"
		if multi {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := cfgFor(phoenix.LogOptimized, true)
			cfg.MultiCall = multi
			u, pc, ps := benchWorld(b, cfg)
			var servers []string
			for s := 0; s < 4; s++ {
				hs, err := ps.Create(fmt.Sprintf("S%d", s), &Counter{})
				if err != nil {
					b.Fatal(err)
				}
				servers = append(servers, string(hs.URI()))
			}
			hf, err := pc.Create("Fan", &FanClient{Servers: servers})
			if err != nil {
				b.Fatal(err)
			}
			ref := u.ExternalRef(hf.URI())
			if _, err := ref.Call("Fan", 1); err != nil {
				b.Fatal(err)
			}
			pc.ResetLogStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ref.Call("Fan", 1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportForces(b, pc)
		})
	}
}

// ---- building-block micro-benchmarks ----

// benchLog opens a process log and returns its Log.
func benchLog(b *testing.B) *wal.Log {
	set, err := wal.OpenSet(b.TempDir()+"/bench.log", disk.HostModel{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { set.Close() })
	return set.Log
}

// BenchmarkWALAppend measures a buffered log append.
func BenchmarkWALAppend(b *testing.B) {
	l := benchLog(b)
	payload := make([]byte, 186) // the paper's incoming-record size
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(2, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendForce measures append+force on the host fs (the
// real-fsync analogue of the paper's unbuffered write).
func BenchmarkWALAppendForce(b *testing.B) {
	l := benchLog(b)
	payload := make([]byte, 186)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(2, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := l.SyncAll(); err != nil {
			b.Fatal(err)
		}
	}
}
