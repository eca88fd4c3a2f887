package bench

import (
	"fmt"

	phoenix "repro"
)

// Table 6 — Checkpointing Performance: the remote Persistent→Persistent
// micro-benchmark with and without saving the server's context state
// after every method call, with the disk write cache disabled and
// enabled. Saving context state adds only the serialization cost plus
// an unforced log append — about 1 ms in the paper against the
// rotational cost of the call's forces.
func init() {
	register(&Experiment{
		ID:    "table6",
		Title: "Checkpointing performance (ms per call, remote Persistent→Persistent)",
		Run:   runTable6,
	})
}

var paper6 = map[string]string{
	"Persistent→Persistent / cache off":              "10.8",
	"Persistent→Persistent (save state) / cache off": "11.8",
	"Persistent→Persistent / cache on":               "2.62",
	"Persistent→Persistent (save state) / cache on":  "3.82",
}

func runTable6(o Options) (*Table, error) { return table6(o, remoteEnv()) }

func table6(o Options, remoteEC envConfig) (*Table, error) {
	o = o.Defaults()
	t := &Table{
		ID:    "Table 6",
		Title: "Checkpointing Performance (ms per call)",
		Cols:  []string{"Configuration", "Measured", "Forces/call", "Paper"},
		Notes: []string{
			"save-state-on-call serializes the server component and appends a context state record (plus last-call reply records) without forcing (Section 4.2)",
		},
	}
	one := 1
	for _, cache := range []bool{false, true} {
		for _, save := range []bool{false, true} {
			ec := remoteEC
			ec.writeCache = cache
			cfg := benchConfig(phoenix.LogOptimized, true)
			if save {
				cfg.SaveStateEvery = 1
			}
			m, err := measureIn(o, ec, func(e *env) (measurement, error) {
				return runBatch(e, cfg, phoenix.Persistent, &BenchServer{}, nil,
					"Add", &one, o.Calls)
			})
			if err != nil {
				return nil, fmt.Errorf("table6 cache=%v save=%v: %w", cache, save, err)
			}
			name := "Persistent→Persistent"
			if save {
				name += " (save state)"
			}
			key := name + " / cache off"
			if cache {
				key = name + " / cache on"
			}
			t.Rows = append(t.Rows, []string{key, ms(m.perCall),
				fmt.Sprintf("%.1f", m.forcesPerCall), paper6[key]})
		}
	}
	return t, nil
}
