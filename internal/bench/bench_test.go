package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/obs"
)

// quickOptions runs the experiments at high clock compression with few
// iterations — the functional test of the harness itself.
func quickOptions(t *testing.T) Options {
	return Options{
		Scale:         0.002,
		Calls:         12,
		RecoverySizes: []int{0, 50, 100},
		Seed:          42,
		Dir:           t.TempDir(),
	}.Defaults()
}

// virtual puts a world on a non-sleeping clock: model time is then the
// sum of the simulated waits alone (rotations, round trips), exact and
// the same on any host, so the shape tests can assert the paper's
// rotation arithmetic without judging wall-clock time.
func virtual(ec envConfig) envConfig {
	ec.virtualClock = true
	return ec
}

func cell(t *testing.T, tab *Table, rowPrefix, col string) string {
	t.Helper()
	ci := -1
	for i, c := range tab.Cols {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("no column %q in %v", col, tab.Cols)
	}
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[0], rowPrefix) {
			return row[ci]
		}
	}
	t.Fatalf("no row starting %q in %s", rowPrefix, tab.ID)
	return ""
}

func cellFloat(t *testing.T, tab *Table, rowPrefix, col string) float64 {
	t.Helper()
	s := cell(t, tab, rowPrefix, col)
	s = strings.TrimSuffix(s, " ms")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q/%q = %q not a number", rowPrefix, col, s)
	}
	return v
}

func TestAblationShapes(t *testing.T) {
	o := quickOptions(t)
	rec, err := runAblationRecords(o)
	if err != nil {
		t.Fatal(err)
	}
	baseB := cellFloat(t, rec, "baseline", "Bytes/call")
	optB := cellFloat(t, rec, "optimized", "Bytes/call")
	if optB >= baseB {
		t.Errorf("short records (%v B) not smaller than full (%v B)", optB, baseB)
	}
	ck, err := runAblationCkptInterval(o)
	if err != nil {
		t.Fatal(err)
	}
	never := cellFloat(t, ck, "0", "Recovery (ms)")
	at100 := cellFloat(t, ck, "100", "Recovery (ms)")
	_ = never
	_ = at100 // tiny quick workloads are noisy; presence + success is the check
	if len(ck.Rows) != 4 {
		t.Errorf("ckpt sweep rows = %d", len(ck.Rows))
	}
	comb, err := runAblationCombining(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(comb.Rows) != 4 {
		t.Errorf("combining rows = %d", len(comb.Rows))
	}
	one := cellFloat(t, comb, "1", "Forces/call")
	if one != 1.0 {
		t.Errorf("1 client forces/call = %v, want exactly 1.0", one)
	}
}

// TestAllRegistered pins the instrument's scope: the paper's tables in
// paper order, then the ablations, and nothing else.
func TestAllRegistered(t *testing.T) {
	want := []string{"table4", "table5", "figure9", "table6", "table7", "table8", "multicall",
		"ablation-ckpt-interval", "ablation-combining", "ablation-records"}
	var got []string
	for _, e := range All() {
		got = append(got, e.ID)
		if _, ok := ByID(e.ID); !ok {
			t.Errorf("ByID(%q) not found", e.ID)
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("All() = %v, want %v", got, want)
	}
}

func TestTable4Shape(t *testing.T) {
	tab, err := table4(quickOptions(t), virtual(localEnv()), virtual(remoteEnv()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("table4 rows = %d", len(tab.Rows))
	}
	// The reproduction targets: baseline P→P ≈ 4 rotations local,
	// optimized ≈ 2; optimized halves baseline; native rows are far
	// below the logged rows.
	base := cellFloat(t, tab, "Persistent→Persistent (baseline)", "Local")
	opt := cellFloat(t, tab, "Persistent→Persistent (optimized)", "Local")
	ext := cellFloat(t, tab, "External→Persistent (baseline)", "Local")
	native := cellFloat(t, tab, "External→MarshalByRefObject", "Local")
	if base < 30 || base > 40 {
		t.Errorf("baseline P→P local = %v ms, want ~34", base)
	}
	if opt < 14 || opt > 21 {
		t.Errorf("optimized P→P local = %v ms, want ~17", opt)
	}
	if ratio := base / opt; ratio < 1.6 || ratio > 2.4 {
		t.Errorf("baseline/optimized = %.2f, want ~2", ratio)
	}
	if ext < 14 || ext > 21 {
		t.Errorf("external→persistent local = %v ms, want ~17", ext)
	}
	if native > 1 {
		t.Errorf("native row = %v ms, want well under 1ms", native)
	}
	// Remote optimized shows partial rotational delays (paper 10.8 vs
	// local 17.9).
	remOpt := cellFloat(t, tab, "Persistent→Persistent (optimized)", "Remote")
	if remOpt >= opt {
		t.Errorf("remote optimized %v >= local %v; jitter should desynchronize rotations", remOpt, opt)
	}
	// Force counts per call ((2n-1)/n for optimized: the first inner
	// call's force is absorbed by the envelope's).
	if f := cellFloat(t, tab, "Persistent→Persistent (baseline)", "Forces/call (local)"); f < 3.8 || f > 4.0 {
		t.Errorf("baseline forces/call = %v, want ~4", f)
	}
	if f := cellFloat(t, tab, "Persistent→Persistent (optimized)", "Forces/call (local)"); f < 1.8 || f > 2.0 {
		t.Errorf("optimized forces/call = %v, want ~2", f)
	}
}

func TestTable5Shape(t *testing.T) {
	o := quickOptions(t)
	before := obs.Default().Snapshot()
	tab, err := table5(o, virtual(localEnv()), virtual(remoteEnv()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("table5 rows = %d", len(tab.Rows))
	}
	// Every specialized row must eliminate forces entirely, and with
	// them the rotational waits.
	for _, row := range tab.Rows {
		if f := cell(t, tab, row[0], "Forces/call (local)"); f != "0.0" {
			t.Errorf("%s forces/call = %s, want 0.0", row[0], f)
		}
		local := cellFloat(t, tab, row[0], "Local")
		if local > 5 {
			t.Errorf("%s local = %v ms; specialized rows must avoid rotational waits", row[0], local)
		}
	}
	// A subordinate call is a direct in-context dispatch — no message,
	// no log wait — so the whole batch costs no model time at all,
	// where a cross-context call pays at least the network round trip.
	subCalls := obs.Default().Snapshot().Diff(before).Counter(obs.InterceptSubordinate)
	if want := int64(200*o.Calls + 1); subCalls != want {
		t.Errorf("subordinate dispatches = %d, want %d", subCalls, want)
	}
	if sub := cellFloat(t, tab, "Persistent→Subordinate", "Local"); sub != 0 {
		t.Errorf("%d subordinate calls cost %v ms of model time each, want 0", subCalls, sub)
	}
	rtt := float64(localEnv().rtt) / float64(time.Millisecond)
	if ro := cellFloat(t, tab, "External→Read-only", "Local"); ro < rtt {
		t.Errorf("cross-context call cost %v ms, want at least the %v ms round trip", ro, rtt)
	}
}

func TestFigure9Shape(t *testing.T) {
	tab := figure9(quickOptions(t), disk.NewVirtualClock())
	rot := 8.333
	// delay 0 → ~1 rotation; delay 10 → 2; delay 20 → 3; delay 30 → 4.
	for _, tc := range []struct {
		delay string
		steps float64
	}{{"0", 1}, {"10", 2}, {"20", 3}, {"30", 4}} {
		got := cellFloat(t, tab, tc.delay, "Per-iteration (ms)")
		want := tc.steps * rot
		if got < want-1 || got > want+1.5 {
			t.Errorf("delay %s: %v ms, want ~%.1f", tc.delay, got, want)
		}
	}
}

func TestTable6Shape(t *testing.T) {
	o := quickOptions(t)
	before := obs.Default().Snapshot()
	tab, err := table6(o, virtual(remoteEnv()))
	if err != nil {
		t.Fatal(err)
	}
	// Two of the four cells save the server's state after every call.
	if saves := obs.Default().Snapshot().Diff(before).Counter(obs.StateSaves); saves < int64(2*o.Calls) {
		t.Errorf("state saves = %d, want at least %d", saves, 2*o.Calls)
	}
	const plain, save = "Persistent→Persistent / ", "Persistent→Persistent (save state) / "
	for _, cache := range []string{"cache off", "cache on"} {
		// The state record is appended without forcing (Section 4.2):
		// saving state adds no force, and so no media wait, to a call.
		if p, s := cell(t, tab, plain+cache, "Forces/call"), cell(t, tab, save+cache, "Forces/call"); p != s {
			t.Errorf("%s: forces/call %s plain, %s saving state; want equal", cache, p, s)
		}
		p, s := cellFloat(t, tab, plain+cache, "Measured"), cellFloat(t, tab, save+cache, "Measured")
		if s < p*0.8 || s > p*1.6 {
			t.Errorf("%s: save %v vs plain %v — state saving should be cheap", cache, s, p)
		}
	}
	// Enabling the cache removes rotational waits.
	if on, off := cellFloat(t, tab, plain+"cache on", "Measured"), cellFloat(t, tab, plain+"cache off", "Measured"); on*2 > off {
		t.Errorf("cache-on %v not well below cache-off %v", on, off)
	}
}

func TestTable7Shape(t *testing.T) {
	// runTable7 itself fails unless each restart replayed exactly its
	// row's calls (0, 50, 100) and recovered the full state; what
	// grows with them here is the log the restart has to read.
	tab, err := runTable7(quickOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 { // empty + three sizes
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Three records per call — Pass 1 reads its incoming and reply-sent
	// records, the walk its incoming one again (the replay reads
	// nothing) — plus the creation record.
	for _, n := range []int{0, 50, 100} {
		if got, want := cellFloat(t, tab, strconv.Itoa(n), "Records scanned"), float64(1+3*n); got != want {
			t.Errorf("records scanned %v for %d replayed calls, want %v", got, n, want)
		}
	}
}

func TestTable8Shape(t *testing.T) {
	tab, err := table8(quickOptions(t), virtual(remoteEnv()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("table8 rows = %d", len(tab.Rows))
	}
	baseF := cellFloat(t, tab, "Baseline", "Forces")
	optF := cellFloat(t, tab, "Optimized", "Forces")
	specF := cellFloat(t, tab, "Specialized", "Forces")
	if !(baseF > optF && optF > specF) {
		t.Errorf("forces not strictly decreasing: %v %v %v", baseF, optF, specF)
	}
	baseT := cellFloat(t, tab, "Baseline", "Elapsed")
	specT := cellFloat(t, tab, "Specialized", "Elapsed")
	if specT*1.5 > baseT {
		t.Errorf("specialized elapsed %v not well below baseline %v", specT, baseT)
	}
}

func TestMultiCallShape(t *testing.T) {
	tab, err := runMultiCall(quickOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	// With the optimization on, forces stay flat in the fan-out; off,
	// they grow.
	off8 := cellFloat(t, tab, "8", "Forces (off)")
	on8 := cellFloat(t, tab, "8", "Forces (on)")
	on1 := cellFloat(t, tab, "1", "Forces (on)")
	if on8 != on1 {
		t.Errorf("multi-call on: forces at k=8 (%v) != k=1 (%v); should be flat", on8, on1)
	}
	if off8 < 5 {
		t.Errorf("multi-call off at k=8: forces = %v, want ~7 (one per send)", off8)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:    "T",
		Title: "demo",
		Cols:  []string{"A", "B"},
		Rows:  [][]string{{"x", "1"}, {"yyyy", "22"}},
		Notes: []string{"n1"},
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"T — demo", "A", "yyyy", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.Defaults()
	if o.Scale != 1 || o.Calls <= 0 || len(o.RecoverySizes) == 0 || o.Seed == 0 {
		t.Errorf("defaults not filled: %+v", o)
	}
}

func TestMsFormat(t *testing.T) {
	cases := map[string]string{
		"150ms":  "150",
		"17.9ms": "17.90",
		"350µs":  "0.350",
		"30ns":   "3.00e-05",
	}
	for in, want := range cases {
		d, err := time.ParseDuration(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := ms(d); got != want {
			t.Errorf("ms(%s) = %q, want %q", in, got, want)
		}
	}
}
