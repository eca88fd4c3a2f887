package lint

import (
	_ "embed"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrderConfig scopes the lockorder analyzer.
type LockOrderConfig struct {
	// Packages are the import paths whose functions are replayed.
	// Empty means the runtime defaults (core + wal).
	Packages []string
	// Order is the declared hierarchy, outermost class first. Empty
	// means the embedded lockorder.order file.
	Order []string
	// Latches are close-once readiness channels; a blocking receive
	// counts as an acquisition for ordering (it can wait forever).
	// Empty means the context-ready latch.
	Latches []string
}

//go:embed lockorder.order
var defaultLockOrderSrc []byte

var (
	defaultLockOrderPackages = []string{
		"repro/internal/core",
		"repro/internal/wal",
	}
	defaultLockOrderLatches = []string{"repro/internal/core.Context.ready"}
)

// deviceClass is the pseudo-class a call that blocks on the device or
// on real time acquires: one of devicePrimitives. It is never held, so
// it only ever ends an edge, and its rank in lockorder.order says
// which locks may be held across device I/O — the log latch may not
// (Section 3.1's combined forces: appends keep flowing during a sync).
const deviceClass = "device"

var devicePrimitives = map[string]bool{
	"(*os.File).Sync":                   true,
	"(repro/internal/disk.Model).Sync":  true,
	"(repro/internal/disk.Clock).Sleep": true,
	"time.Sleep":                        true,
}

// ParseLockOrder parses a lockorder.order file: one lock class per
// line, outermost first; blank lines and # comments are skipped.
func ParseLockOrder(src []byte) []string {
	var order []string
	for _, line := range strings.Split(string(src), "\n") {
		text, _, _ := strings.Cut(line, "#")
		if text = strings.TrimSpace(text); text != "" {
			order = append(order, text)
		}
	}
	return order
}

// LockEdge is one observed acquisition edge: To was acquired (or
// waited on) while From was held. Pos is the acquire site, HeldPos
// where From was taken, Fn the function the acquire site lives in (the
// allowlist unit). Via names the callee chain when the acquisition is
// transitive through a call rather than lexical.
type LockEdge struct {
	From, To     string
	Pos, HeldPos token.Position
	Fn           string
	Via          string
}

// LockGraph is the whole-run acquisition graph, filled in at Finish by
// the analyzer NewLockOrderGraph returns. Order is the declared
// hierarchy the edges were checked against.
type LockGraph struct {
	Order []string
	Edges []LockEdge
}

// DOT renders the graph for Graphviz; DESIGN.md embeds the output.
func (g *LockGraph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph lockorder {\n")
	b.WriteString("  rankdir=TB;\n")
	b.WriteString("  node [shape=box, fontname=\"monospace\", fontsize=10];\n")
	rank := map[string]int{}
	for i, class := range g.Order {
		rank[class] = i
		fmt.Fprintf(&b, "  %q [label=\"%d. %s\"];\n", class, i, class)
	}
	nodes := map[string]bool{}
	for _, class := range g.Order {
		nodes[class] = true
	}
	seen := map[[2]string]bool{}
	var edges []LockEdge
	for _, e := range g.Edges {
		if key := [2]string{e.From, e.To}; !seen[key] {
			seen[key] = true
			edges = append(edges, e)
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	for _, e := range edges {
		for _, n := range []string{e.From, e.To} {
			if !nodes[n] {
				nodes[n] = true
				fmt.Fprintf(&b, "  %q [style=dashed];\n", n)
			}
		}
		attr := ""
		if e.Via != "" {
			attr = fmt.Sprintf(" [label=%q, style=dashed]", "via "+e.Via)
		}
		fmt.Fprintf(&b, "  %q -> %q%s;\n", e.From, e.To, attr)
	}
	b.WriteString("}\n")
	return b.String()
}

// orderEvent is one direct acquisition inside a function. via names
// the blocking primitive a device acquisition calls.
type orderEvent struct {
	class string
	pos   token.Pos
	held  []heldLock
	inGo  bool
	via   string
}

// orderCall is one call site with the locks held across it.
type orderCall struct {
	callee string
	pos    token.Pos
	held   []heldLock
	inGo   bool
}

type orderFunc struct {
	events []orderEvent
	calls  []orderCall
	fset   *token.FileSet
	// seed is the receiver mutex class a *Locked function is entered
	// holding. Its re-acquisition inside the function is the documented
	// drop-and-retake idiom (syncLocked releases the caller's mutex
	// around the device sync, then retakes it), so it is excluded from
	// the caller-visible transitive-acquire set; acquiring the seed
	// while it is still held is caught lexically as a direct self-edge.
	// A caller's seed -> X edge through the call is not drawn either:
	// the callee reports it where X is taken under the seed, and X
	// taken after the callee dropped the seed is not nested under it.
	seed string
}

// NewLockOrder returns the lockorder analyzer: every pair of nested
// lock acquisitions in the checked packages must agree with the
// declared hierarchy in lockorder.order (outermost first), the
// acquisition graph must be acyclic, and every class that appears in
// an edge must be declared. Acquisition is tracked lexically per
// function (lockstate.go's replay, with per-closure scoping) and
// propagated over a call graph devirtualized against the analyzed
// types, so holding the engine mutex while calling a helper that locks
// the log is an edge even though the lock is two calls away. A call to
// a device primitive acquires deviceClass, so "no device I/O under the
// log, process or engine mutex" is the same rank check, reached over
// the same call graph. Each function reports its own edges: two
// functions syncing under one mutex are two diagnostics.
func NewLockOrder(cfg LockOrderConfig) *Analyzer {
	a, _ := NewLockOrderGraph(cfg)
	return a
}

// NewLockOrderGraph is NewLockOrder, additionally exposing the
// acquisition graph the Finish pass computed (for `phoenix-lint
// -lockgraph`). The graph is valid only after the analyzer has run.
func NewLockOrderGraph(cfg LockOrderConfig) (*Analyzer, *LockGraph) {
	pkgs := map[string]bool{}
	paths := cfg.Packages
	if len(paths) == 0 {
		paths = defaultLockOrderPackages
	}
	for _, p := range paths {
		pkgs[p] = true
	}
	order := cfg.Order
	if len(order) == 0 {
		order = ParseLockOrder(defaultLockOrderSrc)
	}
	walkCfg := lockWalkConfig{latches: map[string]bool{}}
	latches := cfg.Latches
	if cfg.Latches == nil {
		latches = defaultLockOrderLatches
	}
	for _, l := range latches {
		walkCfg.latches[l] = true
	}

	graph := &LockGraph{Order: order}
	funcs := map[string]*orderFunc{}
	cg := newCallGraph()

	analyzer := &Analyzer{
		Name: "lockorder",
		Doc:  "nested lock acquisitions follow the declared hierarchy (lockorder.order) and form no cycle",
		Run: func(pass *Pass) error {
			if !pkgs[pass.Pkg.Path()] {
				return nil
			}
			cg.addTypes(pass)
			WalkFuncs(pass, func(decl *ast.FuncDecl, fname string) {
				of := funcs[fname]
				if of == nil {
					of = &orderFunc{fset: pass.Fset}
					if strings.HasSuffix(decl.Name.Name, "Locked") {
						if fn, _ := pass.Info.Defs[decl.Name].(*types.Func); fn != nil {
							of.seed = recvMutexClass(fn)
						}
					}
					funcs[fname] = of
				}
				acquire := func(held []heldLock, class string, pos token.Pos, inGo bool) {
					of.events = append(of.events, orderEvent{class, pos, append([]heldLock(nil), held...), inGo, ""})
				}
				walkLocks(pass, decl, walkCfg, lockCallbacks{
					acquire: acquire,
					wait:    acquire,
					call: func(held []heldLock, fn *types.Func, call *ast.CallExpr, inGo bool) {
						name := FuncString(fn)
						if devicePrimitives[name] {
							of.events = append(of.events, orderEvent{deviceClass, call.Pos(), append([]heldLock(nil), held...), inGo, name})
							return
						}
						cg.addEdge(fname, fn)
						of.calls = append(of.calls, orderCall{name, call.Pos(), append([]heldLock(nil), held...), inGo})
					},
				})
			})
			return nil
		},
		Finish: func(report func(Diagnostic)) {
			finishLockOrder(funcs, cg, graph, order, report)
		},
	}
	return analyzer, graph
}

func finishLockOrder(funcs map[string]*orderFunc, cg *callGraph, graph *LockGraph, order []string, report func(Diagnostic)) {
	virt := cg.devirtualize()

	// Transitive acquisitions: the classes a call to fn can take on
	// the calling goroutine. Spawned goroutines (inGo) are excluded —
	// their locks are not nested under the caller's.
	trans := map[string]map[string]token.Pos{}
	own := func(name string) map[string]token.Pos {
		m := trans[name]
		if m == nil {
			m = map[string]token.Pos{}
			trans[name] = m
		}
		return m
	}
	for name, of := range funcs {
		m := own(name)
		for _, e := range of.events {
			if e.inGo || e.class == "" {
				continue
			}
			if of.seed != "" && e.class == of.seed {
				continue // drop-and-retake of the lock the caller handed in
			}
			if _, ok := m[e.class]; !ok {
				m[e.class] = e.pos
			}
		}
	}
	expand := func(callee string) []string {
		if more, ok := virt[callee]; ok {
			return append([]string{callee}, more...)
		}
		return []string{callee}
	}
	for changed := true; changed; {
		changed = false
		for name, of := range funcs {
			m := own(name)
			for _, c := range of.calls {
				if c.inGo {
					continue
				}
				for _, callee := range expand(c.callee) {
					for class := range trans[callee] {
						if _, ok := m[class]; !ok {
							m[class] = c.pos
							changed = true
						}
					}
				}
			}
		}
	}

	// Edges: direct (held at an acquire site) and transitive (held
	// across a call whose expansion acquires), the first of each class
	// pair per function.
	type edgeKey struct{ from, to, fn string }
	edges := map[edgeKey]LockEdge{}
	first := map[[2]string]LockEdge{} // per class pair, for naming a cycle's back edge
	addEdge := func(e LockEdge) {
		if e.From == "" {
			return // an untracked (local) mutex
		}
		key := edgeKey{e.From, e.To, e.Fn}
		if _, ok := edges[key]; !ok {
			edges[key] = e
			graph.Edges = append(graph.Edges, e)
			if _, ok := first[[2]string{e.From, e.To}]; !ok {
				first[[2]string{e.From, e.To}] = e
			}
		}
	}
	names := make([]string, 0, len(funcs))
	for name := range funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		of := funcs[name]
		for _, e := range of.events {
			if e.class == "" {
				continue
			}
			for _, h := range e.held {
				addEdge(LockEdge{
					From: h.Class, To: e.class,
					Pos: of.fset.Position(e.pos), HeldPos: of.fset.Position(h.Pos),
					Fn: name, Via: e.via,
				})
			}
		}
		for _, c := range of.calls {
			if c.inGo || len(c.held) == 0 {
				continue
			}
			for _, callee := range expand(c.callee) {
				seed := ""
				if cf := funcs[callee]; cf != nil {
					seed = cf.seed
				}
				for class := range trans[callee] {
					for _, h := range c.held {
						if h.Class == seed {
							continue
						}
						addEdge(LockEdge{
							From: h.Class, To: class,
							Pos: of.fset.Position(c.pos), HeldPos: of.fset.Position(h.Pos),
							Fn: name, Via: c.callee,
						})
					}
				}
			}
		}
	}

	// Adjacency for cycle checks.
	succ := map[string][]string{}
	for key := range first {
		succ[key[0]] = append(succ[key[0]], key[1])
	}
	reaches := func(from, to string) []string { // returns path from→…→to, nil if none
		type node struct {
			class string
			prev  *node
		}
		seen := map[string]bool{from: true}
		queue := []*node{{class: from}}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			if n.class == to {
				var path []string
				for ; n != nil; n = n.prev {
					path = append([]string{n.class}, path...)
				}
				return path
			}
			next := append([]string(nil), succ[n.class]...)
			sort.Strings(next)
			for _, s := range next {
				if !seen[s] {
					seen[s] = true
					queue = append(queue, &node{class: s, prev: n})
				}
			}
		}
		return nil
	}

	rank := map[string]int{}
	for i, class := range order {
		rank[class] = i
	}
	keys := make([]edgeKey, 0, len(edges))
	for key := range edges {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		if keys[i].to != keys[j].to {
			return keys[i].to < keys[j].to
		}
		return keys[i].fn < keys[j].fn
	})
	for _, key := range keys {
		e := edges[key]
		via := ""
		if e.Via != "" {
			via = fmt.Sprintf(" (via call to %s)", e.Via)
		}
		switch {
		case e.From == e.To:
			report(Diagnostic{Pos: e.Pos, Fn: e.Fn, Message: fmt.Sprintf(
				"lock %s acquired at %s while already held (taken at %s) in %s%s; recursive acquisition self-deadlocks",
				e.To, e.Pos, e.HeldPos, e.Fn, via)})
		case len(reaches(e.To, e.From)) > 0:
			path := reaches(e.To, e.From)
			back := first[[2]string{path[0], path[1]}]
			report(Diagnostic{Pos: e.Pos, Fn: e.Fn, Message: fmt.Sprintf(
				"acquiring %s at %s while holding %s in %s%s completes a lock cycle: the reverse edge %s -> %s is taken at %s in %s",
				e.To, e.Pos, e.From, e.Fn, via, back.From, back.To, back.Pos, back.Fn)})
		default:
			rf, okf := rank[e.From]
			rt, okt := rank[e.To]
			switch {
			case !okf || !okt:
				missing := e.From
				if okf {
					missing = e.To
				}
				report(Diagnostic{Pos: e.Pos, Fn: e.Fn, Message: fmt.Sprintf(
					"undocumented lock class %s in acquisition edge %s -> %s in %s%s; declare it in internal/lint/lockorder.order or allowlist %s",
					missing, e.From, e.To, e.Fn, via, e.Fn)})
			case rf >= rt && e.To == deviceClass:
				report(Diagnostic{Pos: e.Pos, Fn: e.Fn, Message: fmt.Sprintf(
					"device I/O at %s while holding %s (rank %d, below device at rank %d) in %s%s; release the mutex around the blocking call, as (*wal.Log).syncLocked does, or allowlist %s in phoenix-lint.allow",
					e.Pos, e.From, rf, rt, e.Fn, via, e.Fn)})
			case rf >= rt:
				report(Diagnostic{Pos: e.Pos, Fn: e.Fn, Message: fmt.Sprintf(
					"acquiring %s (rank %d) at %s while holding %s (rank %d) in %s%s inverts the declared hierarchy (lockorder.order: outermost first)",
					e.To, rt, e.Pos, e.From, rf, e.Fn, via)})
			}
		}
	}
	sort.Slice(graph.Edges, func(i, j int) bool {
		a, b := graph.Edges[i], graph.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Fn < b.Fn
	})
}
