//go:build soak

package phoenix_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	phoenix "repro"
	"repro/internal/bookstore"
	"repro/internal/obs"
)

// The soak's three-stage pipeline, after examples/pipeline, with state
// that does not grow: each stage keeps counts and sums, not the orders.

// SoakIntake numbers orders and passes them on (stage 1, persistent).
type SoakIntake struct {
	Next    *phoenix.Ref
	Counter int
}

func (in *SoakIntake) Submit(qty int) (int, error) {
	in.Counter++
	if _, err := in.Next.Call("Price", in.Counter, qty); err != nil {
		return 0, err
	}
	return in.Counter, nil
}

// SoakRates is the functional rate card: a price per unit, in cents.
type SoakRates struct{ Cents int }

func (r *SoakRates) PriceOf(qty int) (int, error) { return r.Cents * qty, nil }

// SoakPricing prices orders through the rate card (stage 2, persistent).
type SoakPricing struct {
	Rates, Ledger *phoenix.Ref
	Priced        int
}

func (p *SoakPricing) Price(id, qty int) (int, error) {
	res, err := p.Rates.Call("PriceOf", qty)
	if err != nil {
		return 0, err
	}
	p.Priced++
	if _, err := p.Ledger.Call("Record", id, res[0].(int)); err != nil {
		return 0, err
	}
	return res[0].(int), nil
}

// SoakLedger books priced orders (stage 3, persistent) and counts the
// audits it answers.
type SoakLedger struct {
	Count, LastID, Revenue, Audits int
}

func (l *SoakLedger) Record(id, cents int) (int, error) {
	l.Count++
	l.LastID = id
	l.Revenue += cents
	return l.Count, nil
}

func (l *SoakLedger) Books() (int, int, int, error) { return l.Count, l.LastID, l.Revenue, nil }

func (l *SoakLedger) Audit() (int, error) { l.Audits++; return l.Audits, nil }

// SoakAuditor is a persistent caller of the ledger that goes quiet.
type SoakAuditor struct {
	Ledger *phoenix.Ref
}

func (a *SoakAuditor) Run() (int, error) {
	res, err := a.Ledger.Call("Audit")
	if err != nil {
		return 0, err
	}
	return res[0].(int), nil
}

const (
	soakCalls    = 200_000 // component executions, every process's
	soakSegBytes = 512
	soakCycle    = 4 // rounds per bookstore checkpoint
	// ordersPerRound orders per round: one call each to the intake and
	// the ledger, two to the pricing process.
	ordersPerRound = 25
	soakCents      = 125
	soakSlack      = 1.1 // a sample at 100 % may exceed its value at 30 % by this factor
)

// soakSample is one reading of what a long-running universe holds.
type soakSample struct {
	segBytes, segments, heapLive, goroutines int64
}

// TestSoakLogStaysBounded runs two bookstores (Section 5.5), one at
// optimized logging and one with specialized components and read-only
// methods, and a three-stage pipeline for soakCalls executions and
// reads, at every tenth of the run, the bytes of segment files on disk,
// the segments the logs report, the live heap bytes after two GCs and
// the goroutines. At the specialized level the stores, the grabber and the
// tax calculator serve only read-only or functional calls, so their
// processes never force but for their checkpoints. The bookstores'
// level configs save no state and take no checkpoint, so every
// soakCycle rounds the soak saves each of their stateful components and
// checkpoints each of their processes itself; the pipeline's processes
// do both by Config. The pricing process also hosts a persistent
// context no call reaches, and an auditor in a process of its own calls
// the ledger once a round for the first tenth of the run, then never
// again: neither may hold its log's trim floor. Published checkpoints
// are the only trimming, so with it gone the log samples grow with the
// run; with it, each sample at the end is within soakSlack of its value
// at 30 %. A crash of every process and a restart then recover the
// model state, and the auditor's next call is a new one to the ledger.
//
//	make soak
func TestSoakLogStaysBounded(t *testing.T) {
	dir := soakDir(t)
	reg := phoenix.NewMetricsRegistry()
	u, err := phoenix.NewUniverse(phoenix.UniverseConfig{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Shutdown()

	buyerNames := []string{"ann", "bob", "cy"}
	machines := []string{"books", "books-spec"}
	var stores []*bookstore.Deployment // one per machine
	var buyers []*bookstore.Buyer
	var serverProcs []*phoenix.Process
	stateless := map[phoenix.URI]bool{}
	for i, level := range []bookstore.Level{bookstore.LevelOptimizedLogging, bookstore.LevelSpecialized} {
		d, err := bookstore.Deploy(u, machines[i], level, buyerNames)
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, d)
		for _, n := range buyerNames {
			buyers = append(buyers, bookstore.NewBuyer(u, d, n, "WA"))
		}
		serverProcs = append(serverProcs, d.ServerProcs...)
		if level == bookstore.LevelSpecialized {
			stateless[d.TaxURI], stateless[d.GrabberURI] = true, true
		}
	}

	pcfg := phoenix.Config{
		LogMode:          phoenix.LogOptimized,
		SpecializedTypes: true,
		SaveStateEvery:   ordersPerRound,
		CheckpointEvery:  soakCycle * ordersPerRound,
	}
	pipe := map[string]*phoenix.Process{}
	for _, stage := range []string{"intake", "pricing", "ledger", "audit"} {
		m, err := u.AddMachine(stage)
		if err != nil {
			t.Fatal(err)
		}
		if pipe[stage], err = m.StartProcess(stage+"d", pcfg); err != nil {
			t.Fatal(err)
		}
	}
	hLedger := soakCreate(t, pipe["ledger"], "Ledger", &SoakLedger{}, phoenix.WithReadOnlyMethods("Books"))
	hRates := soakCreate(t, pipe["pricing"], "Rates", &SoakRates{Cents: soakCents}, phoenix.WithType(phoenix.Functional))
	hPricing := soakCreate(t, pipe["pricing"], "Pricing", &SoakPricing{
		Rates: phoenix.NewRef(hRates.URI()), Ledger: phoenix.NewRef(hLedger.URI()),
	})
	hIntake := soakCreate(t, pipe["intake"], "Intake", &SoakIntake{Next: phoenix.NewRef(hPricing.URI())})
	submit := u.ExternalRef(hIntake.URI())
	hIdle := soakCreate(t, pipe["pricing"], "Idle", &SoakLedger{})
	auditor := u.ExternalRef(soakCreate(t, pipe["audit"], "Auditor", &SoakAuditor{Ledger: phoenix.NewRef(hLedger.URI())}).URI())

	procs := append([]*phoenix.Process{}, serverProcs...)
	for _, stage := range []string{"intake", "pricing", "ledger", "audit"} {
		procs = append(procs, pipe[stage])
	}
	for _, p := range procs {
		p.SetLogSegmentBytes(soakSegBytes)
	}

	// One round: a session per buyer, then ordersPerRound orders, and
	// every soakCycle rounds the bookstores' state saves and checkpoints.
	// Every round makes the same calls, and every checkpoint falls on a
	// cycle's last round, so samples taken every tenth of a whole number
	// of cycles (ten of them at least) all find the logs at the same
	// point of their cycles.
	execs := func() int64 { return reg.Snapshot().Counter(obs.ServeExecs) }
	orders, revenue, audits := 0, 0, 0
	var rounds int
	var samples [11]soakSample
	round := func(r int) {
		t.Helper()
		for _, b := range buyers {
			if _, err := b.RunSession(); err != nil {
				t.Fatalf("round %d, %s's session: %v", r, b.Name, err)
			}
		}
		for i := 0; i < ordersPerRound; i++ {
			qty := 1 + (r+i)%7
			if _, err := submit.Call("Submit", qty); err != nil {
				t.Fatalf("round %d, order %d: %v", r, orders+1, err)
			}
			orders++
			revenue += soakCents * qty
		}
		if rounds == 0 || r < rounds/10 {
			if _, err := auditor.Call("Run"); err != nil {
				t.Fatalf("round %d, audit: %v", r, err)
			}
			audits++
		}
		if r%soakCycle != soakCycle-1 {
			return
		}
		// A sample reads a cycle's peak: its records, before the
		// checkpoint that trims them.
		if k := (r + 1) * 10 / rounds; rounds > 0 && (r+1)%(rounds/10) == 0 {
			samples[k] = sampleSoak(t, dir, procs)
			t.Logf("%3d%%: %7d calls, %7d segment bytes on disk, %3d segments, %7d live heap bytes, %d goroutines",
				k*10, execs(), samples[k].segBytes, samples[k].segments, samples[k].heapLive, samples[k].goroutines)
		}
		for _, p := range serverProcs {
			for _, name := range p.Components() {
				h, _ := p.Lookup(name)
				if stateless[h.URI()] {
					continue
				}
				if err := h.SaveState(); err != nil {
					t.Fatalf("save %s: %v", name, err)
				}
			}
			if err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	start := time.Now()
	round(0)
	rounds = int(soakCalls/execs()/(10*soakCycle)+1) * 10 * soakCycle
	for r := 1; r < rounds; r++ {
		round(r)
	}
	t.Logf("%d calls in %d rounds, %v", execs(), rounds, time.Since(start).Round(time.Millisecond))

	at30, at100 := samples[3], samples[10]
	if seg := int64(soakSegBytes); 20*seg >= at30.segBytes {
		t.Errorf("a segment (%d B) is not under 5 %% of the footprint at 30 %% (%d B)", seg, at30.segBytes)
	}
	for _, c := range []struct {
		name        string
		at30, at100 int64
	}{
		{"segment bytes on disk", at30.segBytes, at100.segBytes},
		{"segments", at30.segments, at100.segments},
		{"live heap bytes", at30.heapLive, at100.heapLive},
		{"goroutines", at30.goroutines, at100.goroutines},
	} {
		if float64(c.at100) > soakSlack*float64(c.at30) {
			t.Errorf("%s grew from %d at 30 %% to %d at 100 %%: more than %.1fx", c.name, c.at30, c.at100, soakSlack)
		}
	}

	// Leave a book in each basket, crash every process, restart each on
	// its own machine, and read the model state back.
	item := bookstore.BasketItem{Title: "A Survey of Rollback-Recovery Protocols", Store: "Store2", Price: 27.25}
	for _, d := range stores {
		for _, n := range buyerNames {
			if _, err := u.ExternalRef(d.SellerURI).Call("AddToBasket", n, item); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, p := range procs {
		p.Crash()
	}
	restart := func(machine, proc string, cfg phoenix.Config) {
		t.Helper()
		m, ok := u.Machine(machine)
		if !ok {
			t.Fatalf("no machine %s", machine)
		}
		if _, err := m.StartProcess(proc, cfg); err != nil {
			t.Fatalf("restart %s: %v", proc, err)
		}
	}
	for i, d := range stores {
		for _, p := range d.ServerProcs {
			restart(machines[i], p.Name(), d.Level.Config())
		}
	}
	for _, stage := range []string{"intake", "pricing", "ledger", "audit"} {
		restart(stage, stage+"d", pcfg)
	}
	for i, d := range stores {
		for _, n := range buyerNames {
			res, err := u.ExternalRef(d.SellerURI).Call("ShowBasket", n)
			if err != nil {
				t.Fatal(err)
			}
			if got := res[0].([]bookstore.BasketItem); len(got) != 1 || got[0] != item {
				t.Errorf("%s: %s's basket after the restart = %v, want [%v]", machines[i], n, got, item)
			}
		}
	}
	res, err := u.ExternalRef(hLedger.URI()).Call("Books")
	if err != nil {
		t.Fatal(err)
	}
	if count, last, rev := res[0].(int), res[1].(int), res[2].(int); count != orders || last != orders || rev != revenue {
		t.Errorf("ledger after the restart: %d orders, last #%d, %d cents; want %d, #%d, %d", count, last, rev, orders, orders, revenue)
	}
	if res, err := auditor.Call("Run"); err != nil || res[0] != any(audits+1) {
		t.Errorf("an audit after the restart = %v, %v; want %d", res, err, audits+1)
	}
	if res, err := u.ExternalRef(hIdle.URI()).Call("Books"); err != nil || res[0] != any(0) {
		t.Errorf("the idle context after the restart: %v, %v", res, err)
	}
	for _, b := range buyers {
		if r, err := b.RunSession(); err != nil || r.Removed != 3 {
			t.Errorf("%s's session after the restart removed %d books, err %v; want the one left and two added", b.Name, r.Removed, err)
		}
	}
}

// soakDir is the soak's universe directory: on /dev/shm when the host
// has one, so the device does not pace the run.
func soakDir(t *testing.T) string {
	t.Helper()
	base := ""
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		base = "/dev/shm"
	}
	dir, err := os.MkdirTemp(base, "phoenix-soak-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

func soakCreate(t *testing.T, p *phoenix.Process, name string, obj any, opts ...phoenix.CreateOption) *phoenix.Handle {
	t.Helper()
	h, err := p.Create(name, obj, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func sampleSoak(t *testing.T, dir string, procs []*phoenix.Process) soakSample {
	t.Helper()
	var s soakSample
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".seg") {
			return err
		}
		fi, err := e.Info()
		if err == nil {
			s.segBytes += fi.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		s.segments += int64(p.LogStats().Segments)
	}
	runtime.GC() // twice: the first moves sync.Pool contents aside, the second frees them
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// HeapAlloc, the bytes of live objects, not HeapInuse: that counts
	// whole spans, and which spans a GC frees varies from run to run by
	// more than soakSlack on a heap this small.
	s.heapLive = int64(ms.HeapAlloc)
	s.goroutines = int64(runtime.NumGoroutine())
	return s
}
