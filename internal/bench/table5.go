package bench

import (
	"fmt"

	phoenix "repro"
)

// Table 5 — New Components and Read-only Methods: the specialized
// component types eliminate log forces, so each row runs without disk
// waits; the Persistent→Subordinate row is a direct in-context call.
func init() {
	register(&Experiment{
		ID:    "table5",
		Title: "New Components and Read-only Methods (ms per call)",
		Run:   runTable5,
	})
}

var paper5 = map[string][2]string{
	"External→Read-only":                {"0.689", "0.887"},
	"External→Functional":               {"0.672", "0.875"},
	"Persistent→Read-only":              {"1.351", "1.495"},
	"Persistent→Functional":             {"1.194", "1.414"},
	"Persistent→Subordinate":            {"3.44e-5", "-"},
	"Persistent→Persistent (RO method)": {"1.407", "1.547"},
	"Read-only→Persistent":              {"1.218", "1.404"},
}

func runTable5(o Options) (*Table, error) { return table5(o, localEnv(), remoteEnv()) }

func table5(o Options, localEC, remoteEC envConfig) (*Table, error) {
	o = o.Defaults()
	cfg := benchConfig(phoenix.LogOptimized, true)
	one := 1
	t := &Table{
		ID:    "Table 5",
		Title: "New Components and Read-only Methods (ms per call)",
		Cols: []string{"Client/Server", "Local", "Remote",
			"Forces/call (local)", "Paper local", "Paper remote"},
		Notes: []string{
			"every row eliminates log forces (the Forces/call column is the reproduction target); absolute times are Go-speed where the paper's were .NET remoting overhead",
			"Persistent→Read-only and the RO-method row still append the reply to the log buffer without forcing (Algorithm 5)",
		},
	}

	type rowSpec struct {
		name   string
		remote bool
		run    func(e *env) (measurement, error)
	}
	rows := []rowSpec{
		{"External→Read-only", true, func(e *env) (measurement, error) {
			return runExternalTo(e, cfg, &BenchEcho{},
				[]phoenix.CreateOption{phoenix.WithType(phoenix.ReadOnly)},
				"Echo", []any{7}, o.Calls)
		}},
		{"External→Functional", true, func(e *env) (measurement, error) {
			return runExternalTo(e, cfg, &BenchPure{},
				[]phoenix.CreateOption{phoenix.WithType(phoenix.Functional)},
				"Double", []any{7}, o.Calls)
		}},
		{"Persistent→Read-only", true, func(e *env) (measurement, error) {
			return runBatch(e, cfg, phoenix.Persistent, &BenchEcho{},
				[]phoenix.CreateOption{phoenix.WithType(phoenix.ReadOnly)},
				"Echo", &one, o.Calls)
		}},
		{"Persistent→Functional", true, func(e *env) (measurement, error) {
			return runBatch(e, cfg, phoenix.Persistent, &BenchPure{},
				[]phoenix.CreateOption{phoenix.WithType(phoenix.Functional)},
				"Double", &one, o.Calls)
		}},
		{"Persistent→Subordinate", false, func(e *env) (measurement, error) {
			return runSubordinate(e, cfg, 200*o.Calls)
		}},
		{"Persistent→Persistent (RO method)", true, func(e *env) (measurement, error) {
			return runBatch(e, cfg, phoenix.Persistent, &BenchServer{},
				[]phoenix.CreateOption{phoenix.WithReadOnlyMethods("Get")},
				"Get", nil, o.Calls)
		}},
		// A read-only client only reads persistent servers ("These
		// calls read the states of persistent server components").
		{"Read-only→Persistent", true, func(e *env) (measurement, error) {
			return runBatch(e, cfg, phoenix.ReadOnly, &BenchServer{},
				nil, "Get", nil, o.Calls)
		}},
	}

	for _, r := range rows {
		local, err := measureIn(o, localEC, r.run)
		if err != nil {
			return nil, fmt.Errorf("table5 %s local: %w", r.name, err)
		}
		remoteCell := "-"
		if r.remote {
			remote, err := measureIn(o, remoteEC, r.run)
			if err != nil {
				return nil, fmt.Errorf("table5 %s remote: %w", r.name, err)
			}
			remoteCell = ms(remote.perCall)
		}
		paper := paper5[r.name]
		t.Rows = append(t.Rows, []string{
			r.name, ms(local.perCall), remoteCell,
			fmt.Sprintf("%.1f", local.forcesPerCall),
			paper[0], paper[1],
		})
	}
	return t, nil
}
