package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/obs"
)

// These tests pin the Config.Adaptive contract: the controller promotes
// disciplines only after sustained qualifying epochs (no flapping under
// oscillating workloads), every transition is durable before it takes
// effect, the read-only guard demotes mid-call before a mutated reply
// externalizes, and recovery of a log whose discipline changed mid-run
// is equivalent across eager/lazy modes and shard layouts. Run
// under -race via `make adaptive-stress`: promotions race with serving
// calls from multiple client goroutines elsewhere in the suite.

// adaptiveUniverse builds a virtual-clock universe (epochs advance via
// clk.Sleep) with a per-process registry so adaptive counters can be
// asserted in isolation.
func adaptiveUniverse(t *testing.T, dir string) (*Universe, *disk.VirtualClock) {
	t.Helper()
	clk := disk.NewVirtualClock()
	u, err := NewUniverse(UniverseConfig{Dir: dir, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	return u, clk
}

func adaptiveConfig(mode LogMode) Config {
	return Config{
		LogMode:       mode,
		Adaptive:      AdaptiveConfig{Enabled: true, Window: 50 * time.Millisecond, PromoteAfter: 3, DemoteAfter: 2},
		RetryInterval: 2 * time.Millisecond,
		RetryLimit:    50,
		Metrics:       obs.NewRegistry(),
	}
}

// epoch drives the controller across one epoch boundary: advance the
// virtual clock past the window, then issue calls (the first call after
// the boundary finalizes the previous epoch).
func epoch(t *testing.T, clk *disk.VirtualClock, w time.Duration, calls func()) {
	t.Helper()
	clk.Sleep(w + time.Millisecond)
	calls()
}

func adaptiveSnap(p *Process) obs.Snapshot { return p.Metrics().Snapshot() }

// assignmentFor returns the discipline string assigned to method (any
// context), or "" when untracked.
func assignmentFor(p *Process, method string) (string, bool) {
	for _, a := range p.AdaptiveAssignments() {
		if a.Method == method {
			return a.Discipline, a.MultiCall
		}
	}
	return "", false
}

// TestAdaptiveDisabledIsInert pins the zero-value contract: with
// Config.Adaptive disabled no controller is attached and no adaptive
// metric ever moves, whatever the workload does.
func TestAdaptiveDisabledIsInert(t *testing.T) {
	u := newTestUniverse(t)
	cfg := testConfig()
	cfg.Metrics = obs.NewRegistry()
	_, p := startProc(t, u, "evo1", "srv", cfg)
	defer p.Close()
	if p.adaptive != nil {
		t.Fatal("controller attached with Adaptive disabled")
	}
	if got := p.AdaptiveAssignments(); got != nil {
		t.Fatalf("AdaptiveAssignments = %v with Adaptive disabled", got)
	}
	h, err := p.Create("C", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	for i := 0; i < 20; i++ {
		callInt(t, ref, "Add", 1)
		callInt(t, ref, "Get")
	}
	snap := adaptiveSnap(p)
	for _, name := range []string{
		obs.AdaptivePromotions, obs.AdaptiveDemotions, obs.AdaptiveEpochs,
		obs.AdaptiveElideAlgo2, obs.AdaptiveElideReadOnly, obs.AdaptiveElideMulti,
		obs.AdaptiveROViolations, obs.RecDisciplineChange,
	} {
		if v := snap.Counter(name); v != 0 {
			t.Errorf("%s = %d with Adaptive disabled, want 0", name, v)
		}
	}
}

// TestAdaptiveAlgo2Promotion drives a persistent relay -> counter chain
// in a baseline universe until both methods promote to Algorithm 2, and
// checks the promotion is visible everywhere it must be: assignments,
// gauge, forced change records, and a reduced force count per call.
func TestAdaptiveAlgo2Promotion(t *testing.T) {
	u, clk := adaptiveUniverse(t, t.TempDir())
	cfg := adaptiveConfig(LogBaseline)
	_, p := startProc(t, u, "evo1", "srv", cfg)
	defer p.Close()

	hc, err := p.Create("C", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := p.Create("R", &Relay{Server: NewRef(hc.URI())})
	if err != nil {
		t.Fatal(err)
	}
	relay := u.ExternalRef(hr.URI())

	burst := func() {
		for i := 0; i < 4; i++ {
			callInt(t, relay, "Forward", 1)
		}
	}
	burst()
	for i := 0; i < 5; i++ {
		epoch(t, clk, cfg.Adaptive.Window, burst)
	}

	for _, method := range []string{"Forward", "Add"} {
		if disc, _ := assignmentFor(p, method); disc != "algo2" {
			t.Errorf("%s assigned %q, want algo2", method, disc)
		}
	}
	snap := adaptiveSnap(p)
	if v := snap.Counter(obs.AdaptivePromotions); v < 2 {
		t.Errorf("adaptive.promotions = %d, want >= 2", v)
	}
	if v := snap.Gauge(obs.AdaptiveDiscAlgo2); v != 2 {
		t.Errorf("adaptive.disc.algo2 gauge = %d, want 2", v)
	}
	if v := snap.Counter(obs.RecDisciplineChange); v < 2 {
		t.Errorf("rec.discipline_change = %d, want >= 2", v)
	}
	if v := snap.Counter(obs.AdaptiveForceAtChange); v < 1 {
		t.Errorf("adaptive.force.at_change = %d, want >= 1 (changes must be forced)", v)
	}

	// Steady state: the promoted chain must elide the baseline's
	// message-1 forces at the counter and message-4 forces at the relay.
	p.ResetLogStats()
	before := adaptiveSnap(p)
	const steady = 10
	for i := 0; i < steady; i++ {
		callInt(t, relay, "Forward", 1)
	}
	delta := adaptiveSnap(p).Diff(before)
	if v := delta.Counter(obs.AdaptiveElideAlgo2); v < steady {
		t.Errorf("adaptive.elided.algo2 = %d over %d steady calls, want >= %d", v, steady, steady)
	}
	forces := p.LogStats().Forces
	// Baseline would force 6 times per Forward (relay msg-1, send,
	// counter msg-1, counter msg-2, msg-4, relay msg-2); the promoted
	// chain forces 4 (Algorithm 3 at the external edge, one send force,
	// one commit force at the counter reply).
	if perCall := float64(forces) / steady; perCall > 4.5 {
		t.Errorf("promoted chain forces %.1f/call, want <= 4.5 (baseline is 6)", perCall)
	}
}

// TestAdaptiveReadOnlyPromotionAndGuard promotes a read-only method to
// Algorithm 5, then arms a mutation and checks the guard demotes the
// method before the mutated reply externalizes — durably, so a crash
// immediately after still recovers the mutation.
func TestAdaptiveReadOnlyPromotionAndGuard(t *testing.T) {
	dir := t.TempDir()
	u, clk := adaptiveUniverse(t, dir)
	cfg := adaptiveConfig(LogBaseline)
	_, p := startProc(t, u, "evo1", "srv", cfg)

	h, err := p.Create("F", &Flaky{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())

	burst := func() {
		for i := 0; i < 4; i++ {
			callInt(t, ref, "Peek")
		}
	}
	burst()
	for i := 0; i < 4; i++ {
		epoch(t, clk, cfg.Adaptive.Window, burst)
	}
	if disc, _ := assignmentFor(p, "Peek"); disc != "readonly" {
		t.Fatalf("Peek assigned %q, want readonly", disc)
	}

	// Promoted: calls log nothing.
	before := adaptiveSnap(p)
	burst()
	delta := adaptiveSnap(p).Diff(before)
	if v := delta.Counter(obs.RecIncoming); v != 0 {
		t.Errorf("promoted read-only method logged %d incoming records, want 0", v)
	}
	if v := delta.Counter(obs.AdaptiveElideReadOnly); v < 4 {
		t.Errorf("adaptive.elided.readonly = %d, want >= 4", v)
	}

	// Arm the mutation: the next Peek increments N under the promoted
	// (unlogged) treatment, trips the guard, and must demote + persist.
	callInt(t, ref, "Arm")
	if got := callInt(t, ref, "Peek"); got != 1 {
		t.Fatalf("armed Peek = %d, want 1", got)
	}
	snap := adaptiveSnap(p)
	if v := snap.Counter(obs.AdaptiveROViolations); v != 1 {
		t.Errorf("adaptive.ro_violations = %d, want 1", v)
	}
	if disc, _ := assignmentFor(p, "Peek"); disc != "baseline" {
		t.Errorf("Peek assigned %q after violation, want baseline", disc)
	}
	if v := snap.Gauge(obs.AdaptiveDiscReadOnly); v != 0 {
		t.Errorf("adaptive.disc.readonly gauge = %d after demotion, want 0", v)
	}

	// The violation's state record was forced before the reply: a crash
	// right now must recover N = 1.
	p.Crash()
	m, ok := u.Machine("evo1")
	if !ok {
		t.Fatal("machine evo1 missing")
	}
	p2, err := m.StartProcess("srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	h2, ok := p2.Lookup("F")
	if !ok {
		t.Fatal("F missing after recovery")
	}
	if n := h2.Object().(*Flaky).N; n != 1 {
		t.Errorf("recovered N = %d, want 1 (guard mutation lost)", n)
	}
	// The demotion is sticky across the restart (mined from the log):
	// Peek must never re-promote to read-only.
	if disc, _ := assignmentFor(p2, "Peek"); disc == "readonly" {
		t.Error("Peek re-promoted to readonly after a recorded violation")
	}
}

// Flaky is a read-only-looking component whose mutation can be armed,
// driving the adaptive guard's demotion path.
type Flaky struct {
	N      int
	Mutate bool
}

func (f *Flaky) Peek() (int, error) {
	if f.Mutate {
		f.N++
	}
	return f.N, nil
}
func (f *Flaky) Arm() (int, error) { f.Mutate = true; return f.N, nil }

// TestAdaptiveHysteresisNoFlapping alternates qualifying and
// disqualifying epochs faster than the promote/demote streaks and
// checks the controller never transitions; then sustains each phase and
// checks exactly one transition per direction.
func TestAdaptiveHysteresisNoFlapping(t *testing.T) {
	u, clk := adaptiveUniverse(t, t.TempDir())
	cfg := adaptiveConfig(LogBaseline)
	_, p := startProc(t, u, "evo1", "srv", cfg)
	defer p.Close()

	hc, err := p.Create("C", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := p.Create("R", &Relay{Server: NewRef(hc.URI())})
	if err != nil {
		t.Fatal(err)
	}
	relay := u.ExternalRef(hr.URI())
	direct := u.ExternalRef(hc.URI())

	// "Add" qualifies for Algorithm 2 in epochs where the relay calls
	// it (internal caller) and disqualifies in epochs where only the
	// external client does. Alternating 1:1 must never reach
	// PromoteAfter=3 or DemoteAfter=2 in a row — zero transitions.
	qualify := func() { callInt(t, relay, "Forward", 1) }
	disqualify := func() { callInt(t, direct, "Add", 1) }
	qualify()
	for i := 0; i < 12; i++ {
		if i%2 == 0 {
			epoch(t, clk, cfg.Adaptive.Window, disqualify)
		} else {
			epoch(t, clk, cfg.Adaptive.Window, qualify)
		}
	}
	snap := adaptiveSnap(p)
	if disc, _ := assignmentFor(p, "Add"); disc != "baseline" {
		t.Errorf("oscillating Add assigned %q, want baseline (no flapping)", disc)
	}

	// Sustained qualification: exactly one promotion for Add. (Forward
	// also promotes — it qualifies in every epoch that calls it.)
	for i := 0; i < 5; i++ {
		epoch(t, clk, cfg.Adaptive.Window, qualify)
	}
	if disc, _ := assignmentFor(p, "Add"); disc != "algo2" {
		t.Errorf("sustained Add assigned %q, want algo2", disc)
	}

	// Sustained disqualification: exactly one demotion back.
	for i := 0; i < 5; i++ {
		epoch(t, clk, cfg.Adaptive.Window, disqualify)
	}
	if disc, _ := assignmentFor(p, "Add"); disc != "baseline" {
		t.Errorf("demoted Add assigned %q, want baseline", disc)
	}
	final := adaptiveSnap(p)
	// Between the oscillation snapshot and now: one Add promotion, one
	// Forward promotion (idle during oscillation epochs is neutral, its
	// streak completes during the sustained phase), one Add demotion.
	d := final.Diff(snap)
	if v := d.Counter(obs.AdaptivePromotions); v > 2 {
		t.Errorf("sustained phases produced %d promotions, want <= 2 (flapping?)", v)
	}
	if v := d.Counter(obs.AdaptiveDemotions); v > 2 {
		t.Errorf("sustained phases produced %d demotions, want <= 2 (flapping?)", v)
	}
	if v := final.Counter(obs.AdaptiveDemotions); v < 1 {
		t.Errorf("adaptive.demotions = %d, want >= 1", v)
	}
}

// TestAdaptiveMultiCallElision drives a fan-out method (three distinct
// persistent servers per execution) in the optimized mode without the
// static MultiCall switch and checks the per-method promotion elides
// the send forces.
func TestAdaptiveMultiCallElision(t *testing.T) {
	u, clk := adaptiveUniverse(t, t.TempDir())
	cfg := adaptiveConfig(LogOptimized)
	_, p := startProc(t, u, "evo1", "srv", cfg)
	defer p.Close()

	var refs [3]*Ref
	for i := range refs {
		h, err := p.Create(fmt.Sprintf("C%d", i), &Counter{})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = NewRef(h.URI())
	}
	hf, err := p.Create("Fan", &Fan{A: refs[0], B: refs[1], C: refs[2]})
	if err != nil {
		t.Fatal(err)
	}
	fan := u.ExternalRef(hf.URI())

	burst := func() {
		for i := 0; i < 3; i++ {
			callInt(t, fan, "Spread", 1)
		}
	}
	burst()
	for i := 0; i < 4; i++ {
		epoch(t, clk, cfg.Adaptive.Window, burst)
	}
	if _, mc := assignmentFor(p, "Spread"); !mc {
		t.Fatal("Spread not multi-call promoted")
	}

	before := adaptiveSnap(p)
	p.ResetLogStats()
	const steady = 10
	for i := 0; i < steady; i++ {
		callInt(t, fan, "Spread", 1)
	}
	delta := adaptiveSnap(p).Diff(before)
	// Every outgoing call is a first call to a distinct server: all
	// three send forces per execution are elided.
	if v := delta.Counter(obs.AdaptiveElideMulti); v != 3*steady {
		t.Errorf("adaptive.elided.multicall = %d over %d calls, want %d", v, steady, 3*steady)
	}
	if v := delta.Counter(obs.ForceAtSend); v != 0 {
		t.Errorf("force.at_send = %d after multi-call promotion, want 0", v)
	}
}

// Fan calls three distinct servers per execution (Section 3.5's
// distinct-server pattern).
type Fan struct {
	A, B, C *Ref
	Total   int
}

func (f *Fan) Spread(d int) (int, error) {
	for _, r := range []*Ref{f.A, f.B, f.C} {
		res, err := r.Call("Add", d)
		if err != nil {
			return 0, err
		}
		f.Total = res[0].(int)
	}
	return f.Total, nil
}

// adaptivePromoted filters an assignment list to its non-default
// entries — the part a recovery must have mined durably from
// discipline-change records (post-restart traffic may add fresh
// baseline-state entries, which carry no durable information).
func adaptivePromoted(assigns []AdaptiveAssignment) []AdaptiveAssignment {
	var out []AdaptiveAssignment
	for _, a := range assigns {
		if a.Discipline != DiscBaseline.String() || a.MultiCall {
			out = append(out, a)
		}
	}
	return out
}

// adaptiveChain creates the relay -> counter pair on a fresh adaptive
// baseline process rooted at dir and returns the universe, clock,
// process, and the relay's external URI.
func adaptiveChain(t *testing.T, dir string, cfg Config) (*Universe, *disk.VirtualClock, *Process, *Ref) {
	t.Helper()
	u, clk := adaptiveUniverse(t, dir)
	_, p := startProc(t, u, "evo1", "srv", cfg)
	hc, err := p.Create("C", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := p.Create("R", &Relay{Server: NewRef(hc.URI())})
	if err != nil {
		t.Fatal(err)
	}
	return u, clk, p, u.ExternalRef(hr.URI())
}

// adaptiveBoundaryScenarios crash the promoting relay -> counter chain
// at the three spots that straddle a promotion: before any
// discipline-change record exists, immediately after the first change
// record is forced but before the controller's in-memory commit
// (PointAdaptiveAfterChangeLogged), and well after the promotion took
// effect. They join the recovery equivalence table
// (TestRecoveryEquivalence): each crashed one-shard log is
// restarted on 1- and 4-shard layouts under every mode, and every cell must agree on component state, the last-call
// table, and the promoted assignment set — which must be exactly what
// the durable log said at the crash point.
func adaptiveBoundaryScenarios() []equivScenario {
	cases := []struct {
		name string
		// build drives the chain at dir to the named crash point and
		// leaves the crashed universe on disk.
		build func(t *testing.T, dir string)
		// wantPromoted lists the methods the durable log must say were
		// promoted at crash time (assignment order: counter before relay).
		wantPromoted []string
	}{
		{
			name: "before-change",
			build: func(t *testing.T, dir string) {
				cfg := adaptiveConfig(LogBaseline)
				u, clk, p, relay := adaptiveChain(t, dir, cfg)
				burst := func() {
					for i := 0; i < 4; i++ {
						callInt(t, relay, "Forward", 1)
					}
				}
				// Two finalized qualifying epochs: streaks at 2, one short
				// of PromoteAfter — no change record exists yet.
				burst()
				for i := 0; i < 2; i++ {
					epoch(t, clk, cfg.Adaptive.Window, burst)
				}
				p.Crash()
				u.Shutdown()
			},
			wantPromoted: nil,
		},
		{
			name: "on-change",
			build: func(t *testing.T, dir string) {
				cfg := adaptiveConfig(LogBaseline)
				inj := NewInjector().CrashAt(PointAdaptiveAfterChangeLogged, 1)
				cfg.Injector = inj
				u, clk, _, relay := adaptiveChain(t, dir, cfg)
				relay = relay.WithoutRetry()
				// The first call of the fourth epoch finalizes the third
				// qualifying one, reaching PromoteAfter: the injector
				// crashes the process right after the first change record
				// (the counter's — lower context ID) is appended and
				// forced, before the in-memory commit and before the
				// relay's change is logged at all.
				crashed := false
				for e := 0; e < 8 && !crashed; e++ {
					for i := 0; i < 4; i++ {
						if _, err := relay.Call("Forward", 1); err != nil {
							crashed = true
							break
						}
					}
					if !crashed {
						clk.Sleep(cfg.Adaptive.Window + time.Millisecond)
					}
				}
				if !crashed {
					t.Fatal("promotion-boundary injection never fired")
				}
				if n := inj.Fired(PointAdaptiveAfterChangeLogged); n != 1 {
					t.Fatalf("injection fired %d times, want 1", n)
				}
				u.Shutdown()
			},
			wantPromoted: []string{"Add"},
		},
		{
			name: "after-change",
			build: func(t *testing.T, dir string) {
				cfg := adaptiveConfig(LogBaseline)
				u, clk, p, relay := adaptiveChain(t, dir, cfg)
				burst := func() {
					for i := 0; i < 4; i++ {
						callInt(t, relay, "Forward", 1)
					}
				}
				burst()
				for i := 0; i < 5; i++ {
					epoch(t, clk, cfg.Adaptive.Window, burst)
				}
				// A few calls land under the promoted discipline (elided
				// internal message-1s) before the crash.
				burst()
				p.Crash()
				u.Shutdown()
			},
			wantPromoted: []string{"Add", "Forward"},
		},
	}

	var scs []equivScenario
	for _, tc := range cases {
		var dir string // one log per case, built on first use
		scs = append(scs, equivScenario{
			name:    "adaptive-" + tc.name,
			shards:  []int{1, 4},
			sameLog: true,
			build: func(t *testing.T, shards int) equivImage {
				if dir == "" {
					dir = t.TempDir()
					tc.build(t, dir)
				}
				cfg := adaptiveConfig(LogBaseline)
				cfg.Metrics = nil
				// A huge window freezes the epoch machine across
				// recovery and collection: the assignments read back are
				// exactly what the log mined, never what post-restart
				// traffic re-decided.
				cfg.Adaptive.Window = time.Hour
				cfg.WAL.Shards = shards
				return equivImage{dir: dir, counters: []string{"C"}, relays: []string{"R"},
					touch: []string{"C"}, cfg: cfg}
			},
			check: func(t *testing.T, base recoveryOutcome) {
				var methods []string
				for _, a := range base.promoted {
					methods = append(methods, a.Method)
					if a.Discipline != "algo2" {
						t.Errorf("recovered %s assigned %q, want algo2", a.Method, a.Discipline)
					}
				}
				if !reflect.DeepEqual(methods, tc.wantPromoted) {
					t.Errorf("baseline recovered promotions %v, want %v", methods, tc.wantPromoted)
				}
			},
		})
	}
	return scs
}
