package bench

import (
	"fmt"
	"time"

	"repro/internal/disk"
)

// Figure 9 — Unbuffered disk write performance: 1 KB writes in a loop
// with an inserted delay after each write; elapsed time per iteration
// jumps in discrete steps of one rotation (8.33 ms at 7200 RPM),
// showing that unbuffered writes miss a full rotation.
func init() {
	register(&Experiment{
		ID:    "figure9",
		Title: "Unbuffered disk write performance (staircase)",
		Run:   runFigure9,
	})
}

func runFigure9(o Options) (*Table, error) {
	o = o.Defaults()
	return figure9(o, disk.NewRealClock(o.Scale)), nil
}

func figure9(o Options, clock disk.Clock) *Table {
	t := &Table{
		ID:    "Figure 9",
		Title: "Elapsed time per iteration vs delay after a 1KB unbuffered write",
		Cols:  []string{"Delay (ms)", "Per-iteration (ms)", "Missed rotations"},
		Notes: []string{
			"paper: ~8.5 ms with no delay, discrete jumps at multiples of the 8.33 ms rotation",
		},
	}
	iters := o.Calls / 3
	if iters < 8 {
		iters = 8
	}
	for delayMs := 0; delayMs <= 36; delayMs += 2 {
		d := disk.NewSimDisk(disk.DefaultParams(), clock)
		delay := time.Duration(delayMs) * time.Millisecond
		d.Write(1024) // prime the phase
		start := clock.Now()
		for i := 0; i < iters; i++ {
			clock.Sleep(delay)
			d.Write(1024)
		}
		per := clock.Now().Sub(start) / time.Duration(iters)
		rot := d.Rotation()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", delayMs),
			ms(per),
			fmt.Sprintf("%.2f", float64(per)/float64(rot)),
		})
	}
	return t
}
