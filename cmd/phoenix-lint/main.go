// Command phoenix-lint runs the repository's discipline analyzers
// (internal/lint): forcesite, wallclock, locksync, exhaustive,
// lockorder, poollife, shutdownpath and droppederr.
//
//	go run ./cmd/phoenix-lint ./...
//
// loads the matched packages (./... by default), runs the full suite —
// including the cross-package reconciliations — and applies the
// allowlist, internal/lint/phoenix-lint.allow (embedded at build time).
// It exits 1 with one line per violation, and one per dead allowlist
// entry (an entry that matched no diagnostic of the run), unless the
// tree is clean. Entries are judged against the packages loaded, so
// lint the whole tree.
//
// -json emits the same result as a JSON object for CI step summaries.
// -lockgraph prints the lock-acquisition graph lockorder observed as
// Graphviz DOT (the DESIGN.md §14 figure).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("phoenix-lint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	jsonFlag := flags.Bool("json", false, "emit the diagnostics and dead allowlist entries as a JSON object on stdout")
	lockgraphFlag := flags.Bool("lockgraph", false, "emit the observed lock-acquisition graph as Graphviz DOT and exit")
	flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: phoenix-lint [-json | -lockgraph] [package pattern ...]\n\nDefaults to ./... . Flags:\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "phoenix-lint:", err)
		return 2
	}

	if *lockgraphFlag {
		graph, err := lint.LockGraphFor(".", flags.Args()...)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, graph.DOT())
		return 0
	}
	diags, dead, err := lint.Check(".", flags.Args()...)
	if err != nil {
		return fail(err)
	}
	if *jsonFlag {
		if err := writeJSON(stdout, diags, dead); err != nil {
			return fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		for _, e := range dead {
			fmt.Fprintf(stdout, "phoenix-lint.allow: dead entry %q matches no current diagnostic; delete it\n", e)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "phoenix-lint: %d violation(s); fix them or add a '# why'-commented entry to internal/lint/phoenix-lint.allow\n", len(diags))
	}
	if len(dead) > 0 {
		fmt.Fprintf(stderr, "phoenix-lint: %d dead allowlist entr(y/ies); on a ./... run the exceptions they document no longer exist — delete them\n", len(dead))
	}
	if len(diags) > 0 || len(dead) > 0 {
		return 1
	}
	return 0
}

// writeJSON emits the report: an object with the diagnostics array
// (position, analyzer, enclosing function, message) and any dead
// allowlist entries. CI publishes this as the lint job's step summary.
func writeJSON(w io.Writer, diags []lint.Diagnostic, dead []string) error {
	type jsonDiag struct {
		Pos      string `json:"pos"`
		Analyzer string `json:"analyzer"`
		Fn       string `json:"fn,omitempty"`
		Message  string `json:"message"`
	}
	out := struct {
		Diagnostics []jsonDiag `json:"diagnostics"`
		DeadAllow   []string   `json:"dead_allowlist_entries,omitempty"`
	}{Diagnostics: []jsonDiag{}, DeadAllow: dead}
	for _, d := range diags {
		out.Diagnostics = append(out.Diagnostics, jsonDiag{
			Pos: d.Pos.String(), Analyzer: d.Analyzer, Fn: d.Fn, Message: d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(out)
}
