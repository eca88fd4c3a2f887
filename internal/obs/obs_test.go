package obs

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.counter("x.y")
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.counter("x.y") != c {
		t.Error("second lookup returned a different counter")
	}
	// nil receivers are no-ops, so unobserved subsystems need no guards.
	var nc *Counter
	nc.Inc()
	nc.Add(5)
	if nc.Load() != 0 {
		t.Error("nil counter should load 0")
	}
	var nh *Histogram
	nh.Observe(7)
	var nr *Registry
	if nr.counter("a") != nil || nr.histogram("b") != nil {
		t.Error("nil registry should hand out nil metrics")
	}
	if !nr.Snapshot().Empty() {
		t.Error("nil registry snapshot should be empty")
	}
}

func TestHistogramBucketsAndMean(t *testing.T) {
	r := NewRegistry()
	h := r.histogram("lat")
	for _, v := range []int64{0, 1, 2, 3, 1000, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Sum != 1006 {
		t.Fatalf("sum = %d, want 1006", s.Sum)
	}
	if s.Max != 1000 {
		t.Fatalf("max = %d, want 1000", s.Max)
	}
	// 0 and the clamped -5 land in bucket 0; 1 in bucket 1; 2,3 in
	// bucket 2; 1000 in bucket 10.
	want := map[int]int64{0: 2, 1: 1, 2: 2, 10: 1}
	for i, n := range want {
		if s.Buckets[i] != n {
			t.Errorf("bucket %d = %d, want %d", i, s.Buckets[i], n)
		}
	}
	if got := s.Mean(); got != 1006.0/6 {
		t.Errorf("mean = %v", got)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	c := r.counter("calls")
	h := r.histogram("lat")
	c.Add(10)
	h.Observe(5)
	base := r.Snapshot()
	c.Add(7)
	h.Observe(9)
	d := r.Snapshot().Diff(base)
	if d.Counter("calls") != 7 {
		t.Errorf("diffed counter = %d, want 7", d.Counter("calls"))
	}
	hd := d.HistogramFor("lat")
	if hd.Count != 1 || hd.Sum != 9 {
		t.Errorf("diffed histogram = %+v", hd)
	}
	if d.Counter("absent") != 0 {
		t.Error("absent counter should read 0")
	}
	if d.Empty() {
		t.Error("diff with activity should not be Empty")
	}
	if !r.Snapshot().Diff(r.Snapshot()).Empty() {
		t.Error("self-diff should be Empty")
	}
}

func TestSnapshotWriteText(t *testing.T) {
	r := NewRegistry()
	r.counter("b.two").Add(2)
	r.counter("a.one").Add(1)
	r.counter("z.zero") // stays zero: omitted
	r.histogram("lat").Observe(10)
	var sb strings.Builder
	r.Snapshot().WriteText(&sb, "  ")
	out := sb.String()
	if !strings.Contains(out, "a.one") || !strings.Contains(out, "b.two") {
		t.Errorf("missing counters in %q", out)
	}
	if strings.Contains(out, "z.zero") {
		t.Errorf("zero counter rendered in %q", out)
	}
	if strings.Index(out, "a.one") > strings.Index(out, "b.two") {
		t.Errorf("output not sorted: %q", out)
	}
	if !strings.Contains(out, "lat") || !strings.Contains(out, "count=1") {
		t.Errorf("histogram missing in %q", out)
	}
}

// allViews resolves every view in names.go from r.
func allViews(r *Registry) []any {
	return []any{WALView(r), TraceView(r), RuntimeView(r), TransportView(r)}
}

// catalogue returns the string constants names.go declares, read from
// the source so that a constant no view resolves is caught too.
func catalogue(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "names.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			for _, v := range spec.(*ast.ValueSpec).Values {
				if lit, ok := v.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					names[name] = true
				}
			}
		}
	}
	return names
}

func TestViewsResolveAllFields(t *testing.T) {
	r := NewRegistry()
	fields := 0
	for _, v := range allViews(r) {
		rv := reflect.ValueOf(v).Elem()
		for i := 0; i < rv.NumField(); i++ {
			fields++
			if rv.Field(i).IsNil() {
				t.Errorf("%s.%s is nil", rv.Type().Name(), rv.Type().Field(i).Name)
			}
		}
	}

	// The catalogue: the views resolve each constant of names.go by
	// exactly one field, and nothing else.
	snap := r.Snapshot()
	resolved := map[string]int{}
	for name := range snap.Counters {
		resolved[name]++
	}
	for name := range snap.Histograms {
		resolved[name]++
	}
	declared := catalogue(t)
	for name, n := range resolved {
		if !declared[name] {
			t.Errorf("a view resolves %q, which names.go does not declare", name)
		}
		if n > 1 {
			t.Errorf("%q is resolved as %d kinds of metric", name, n)
		}
	}
	for name := range declared {
		if resolved[name] == 0 {
			t.Errorf("names.go declares %q but no view resolves it", name)
		}
	}
	if fields != len(declared) {
		t.Errorf("the views have %d fields for %d declared names, want one field per name", fields, len(declared))
	}

	// Views over the same registry share state.
	w := WALView(r)
	w.Forces.Inc()
	if WALView(r).Forces.Load() != 1 {
		t.Error("views over one registry must share counters")
	}
	// Nil-registry views are safe to use.
	for _, v := range allViews(nil) {
		rv := reflect.ValueOf(v).Elem()
		for i := 0; i < rv.NumField(); i++ {
			if !rv.Field(i).IsNil() {
				t.Errorf("nil-registry %s.%s is not nil", rv.Type().Name(), rv.Type().Field(i).Name)
			}
		}
	}
	nw := WALView(nil)
	nw.Forces.Inc()
	nw.ForceMicros.Observe(3)
}

// TestReadmeListsEveryMetric: the backticked metric names in README's
// Observability section are exactly the catalogue. A metric-shaped
// token is lowercase and dotted, like every name in names.go.
func TestReadmeListsEveryMetric(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(readme)
	start := strings.Index(section, "\n## Observability\n")
	if start < 0 {
		t.Fatal("README has no Observability section")
	}
	section = section[start+1:]
	if end := strings.Index(section[1:], "\n## "); end >= 0 {
		section = section[:end+1]
	}
	metric := regexp.MustCompile("`([a-z][a-z0-9_]*(?:\\.[a-z0-9_]+)+)`")
	listed := map[string]bool{}
	for _, m := range metric.FindAllStringSubmatch(section, -1) {
		listed[m[1]] = true
	}
	declared := catalogue(t)
	for name := range listed {
		if !declared[name] {
			t.Errorf("README's Observability section lists %q, which names.go does not declare", name)
		}
	}
	for name := range declared {
		if !listed[name] {
			t.Errorf("README's Observability section does not list %q", name)
		}
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.counter(fmt.Sprintf("c%d", i%10)).Inc()
				r.histogram("h").Observe(int64(i))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for i := 0; i < 10; i++ {
		total += r.counter(fmt.Sprintf("c%d", i)).Load()
	}
	if total != 8000 {
		t.Fatalf("lost updates: total = %d, want 8000", total)
	}
	if got := r.histogram("h").Snapshot().Count; got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if snap := r.Snapshot(); len(snap.Counters) != 10 || len(snap.Histograms) != 1 {
		t.Fatalf("snapshot holds %d counters and %d histograms, want 10 and 1", len(snap.Counters), len(snap.Histograms))
	}
}

func TestDebugServer(t *testing.T) {
	r := NewRegistry()
	r.counter(WALForces).Add(3)
	r.histogram(RPCCallMicros).Observe(250)
	d, err := StartDebugServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	resp, err := http.Get("http://" + d.Addr() + DebugPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if snap.Counter(WALForces) != 3 {
		t.Errorf("served forces = %d, want 3", snap.Counter(WALForces))
	}
	if snap.HistogramFor(RPCCallMicros).Count != 1 {
		t.Errorf("served histogram = %+v", snap.HistogramFor(RPCCallMicros))
	}
}

func TestDefaultRegistryIsShared(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default must return one registry")
	}
}
