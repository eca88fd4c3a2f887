package main

import (
	"bytes"
	"encoding/gob"
	"time"
)

// Host-speed calibration. This benchmark runs on small shared virtual
// machines whose speed on allocation-heavy code drifts by 1.5–2x for
// seconds to minutes at a time (measured while writing it: the same
// binary's median call went 60 → 100 → 60 µs with nothing else running
// in the guest). Taking each figure from the quietest window of a run
// survives short bursts; it does not survive a slow period longer than
// a run. So every run also times a fixed reference computation — the
// allocation- and reflection-heavy shape of the runtime's own hot path,
// built only from the standard library so that no change to the product
// can move it — in slices interleaved with the measured windows, and
// reports CPU-bound times at nominal host speed: the measured floor
// divided by (reference floor ÷ nominal). Device-bound times (the -sim
// workloads' latencies) are model time and are not scaled.

// calibNominalNs is the reference unit's cost on the quiet host the
// benchmark was defined on. It only fixes the scale of the normalised
// figures; what matters is that it never changes.
const calibNominalNs = 16000.0

// calibShare is the part of each window spent on the reference.
const calibShare = 0.15

// calibrationUnit is the fixed reference computation.
func calibrationUnit() {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode([]any{7, "calibration", 3.25}); err != nil {
		panic(err)
	}
	var out []any
	if err := gob.NewDecoder(&b).Decode(&out); err != nil {
		panic(err)
	}
}

// calibrate runs the reference for d and returns its mean cost in ns
// per unit. Callers take the floor over several slices.
func calibrate(d time.Duration) float64 {
	start := time.Now()
	n := 0
	for {
		for i := 0; i < 8; i++ {
			calibrationUnit()
		}
		n += 8
		if el := time.Since(start); el >= d {
			return float64(el.Nanoseconds()) / float64(n)
		}
	}
}

// hostSpeed turns a reference floor into the factor CPU-bound times
// are divided by: above 1 on a host slower than nominal.
func hostSpeed(calibFloorNs float64) float64 {
	if calibFloorNs <= 0 {
		return 1
	}
	return calibFloorNs / calibNominalNs
}
