package bench

import (
	"fmt"
	"time"

	"repro/internal/bookstore"
)

// Table 8 — Performance of the Online Bookstore Application: the
// scripted buyer session (search "recovery", add a book from each
// store, show basket + total with tax, clear) at the three
// optimization levels, reporting elapsed time and number of log
// forces.
func init() {
	register(&Experiment{
		ID:    "table8",
		Title: "Online bookstore application (elapsed time and forces per session)",
		Run:   runTable8,
	})
}

var paper8 = map[bookstore.Level][2]string{
	bookstore.LevelBaseline:         {"589 ms", "64"},
	bookstore.LevelOptimizedLogging: {"382 ms", "46"},
	bookstore.LevelSpecialized:      {"296 ms", "34"},
}

// The buyer runs on one machine, the servers on the other.
func runTable8(o Options) (*Table, error) { return table8(o, remoteEnv()) }

func table8(o Options, ec envConfig) (*Table, error) {
	o = o.Defaults()
	t := &Table{
		ID:    "Table 8",
		Title: "Performance of Online Bookstore Application",
		Cols: []string{"Optimization level", "Elapsed", "Forces",
			"Paper elapsed", "Paper forces"},
		Notes: []string{
			"one steady-state session: search + 2 basket adds + show + total + clear; forces summed over all server processes",
			"absolute force counts differ from the paper's (session scripts differ in call counts) — the reproduction target is the monotone drop and the roughly 2x elapsed-time cut",
		},
	}
	levels := []bookstore.Level{
		bookstore.LevelBaseline,
		bookstore.LevelOptimizedLogging,
		bookstore.LevelSpecialized,
	}
	for _, level := range levels {
		elapsed, forces, err := table8Session(o, ec, level)
		if err != nil {
			return nil, fmt.Errorf("table8 %v: %w", level, err)
		}
		paper := paper8[level]
		t.Rows = append(t.Rows, []string{
			level.String(), ms(elapsed) + " ms", fmt.Sprintf("%d", forces),
			paper[0], paper[1],
		})
	}
	return t, nil
}

// table8Session deploys the bookstore at one level, warms it up with
// one session and measures the next.
func table8Session(o Options, ec envConfig, level bookstore.Level) (time.Duration, int64, error) {
	e, err := newEnv(o, ec)
	if err != nil {
		return 0, 0, err
	}
	defer e.Close()
	d, err := bookstore.Deploy(e.u, "evo2", level, []string{"buyer"})
	if err != nil {
		return 0, 0, err
	}
	defer d.Close()
	buyer := bookstore.NewBuyer(e.u, d, "buyer", "WA")
	if _, err := buyer.RunSession(); err != nil {
		return 0, 0, fmt.Errorf("warmup: %w", err)
	}
	d.ResetStats()
	elapsed, err := e.elapsed(func() error {
		_, err := buyer.RunSession()
		return err
	})
	return elapsed, d.Forces(), err
}
