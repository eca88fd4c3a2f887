package main

import (
	"time"

	phoenix "repro"
	"repro/internal/obs"
)

// numWindows is how many equal windows an open-loop phase or a slow
// closed loop's measured interval is cut into.
const numWindows = 10

// hotShare is the part of a device-bound workload's measured interval
// spent on its never-sleeping twin; see closedSpec.hotOp.
const hotShare = 0.2

// hotWindows cuts the hot twin's short interval finely, for the same
// reason as fastWindows.
const hotWindows = 30

// hotCost runs op back to back for seconds on a deployment that never
// sleeps and returns what it costs in CPU time, at nominal host speed,
// and in allocations.
func hotCost(seconds float64, op func() bool) (cpuUs, allocs estimate, ops, failed int) {
	ws, failed := measureClosed(seconds, hotWindows, op, nil)
	st := reduceWindows(ws, 0.5)
	return st.cpuUs.over(hostSpeed(st.calibNs.Value)), st.allocs, st.ops, failed
}

// fastWindows is the cut for closed loops whose ops take microseconds:
// short windows, so that some fall between the host's noisy stretches.
const fastWindows = 50

// measureClosed runs op back to back (one client, closed loop) for
// seconds, cut into n equal windows, each ending with a slice of the
// calibration reference. op reports whether it succeeded with the right
// result. probe, when not nil, is called outside the timed part at the
// start and at the end of each window's ops.
func measureClosed(seconds float64, n int, op func() bool, probe func(w *window, i int, start bool)) (ws []window, failed int) {
	ws = make([]window, n)
	slot := seconds * float64(time.Second) / float64(n)
	per := time.Duration(slot * (1 - calibShare))
	calib := time.Duration(slot * calibShare)
	capHint := 1024
	for w := range ws {
		win := &ws[w]
		win.latMs = make([]float64, 0, capHint)
		if probe != nil {
			probe(win, w, true)
		}
		m0, c0 := mallocs(), cpuTime()
		start := time.Now()
		deadline := start.Add(per)
		t := start
		for {
			ok := op()
			now := time.Now()
			win.ops++
			if !ok {
				failed++
			}
			win.latMs = append(win.latMs, float64(now.Sub(t))/float64(time.Millisecond))
			t = now
			if !now.Before(deadline) {
				break
			}
		}
		win.wall = t.Sub(start)
		win.cpu = cpuTime() - c0
		win.mallocs = mallocs() - m0
		if probe != nil {
			probe(win, w, false)
		}
		win.calibNs = calibrate(calib)
		capHint = 2 * win.ops
	}
	return ws, failed
}

// closedSpec describes a deployed closed-loop workload to runClosed.
type closedSpec struct {
	op      func() bool
	procs   []*phoenix.Process // every process with a recovery log
	metrics *phoenix.MetricsRegistry
	windows int
	tailQ   float64 // quantile behind op_tail_ms
	// wholeRunTail takes the tail over all ops instead of per window
	// (for ops too slow to give a window enough samples).
	wholeRunTail bool
	// cpuBound says the op's latency is CPU time, to be reported at
	// nominal host speed; otherwise it is device (model) time and only
	// cpu_us_per_op is scaled.
	cpuBound bool
	// hotOp, for device-bound workloads, is the same op on a second
	// deployment whose clock never sleeps. A process that sleeps 97% of
	// the time runs every op on cold caches after a wake-up, and its CPU
	// time per op swings by a quarter from window to window; the hot
	// deployment takes the last hotShare of the interval and gives
	// cpu_us_per_op and allocs_per_op the resolution they have on the
	// CPU-bound workloads.
	hotOp  func() bool
	layers layerInput // what the traced run's layer replays need
}

// runClosed measures a closed-loop workload: the end-to-end metrics on
// an untraced run, the per-layer ledger on a traced one.
func runClosed(rc *runCtx, res *result, cs closedSpec) {
	if rc.traced {
		runClosedTraced(rc, res, cs)
		return
	}
	seconds := rc.seconds
	if cs.hotOp != nil {
		seconds *= 1 - hotShare
	}
	snap0, log0 := cs.metrics.Snapshot(), sumLogStats(cs.procs)
	ws, failed := measureClosed(seconds, cs.windows, cs.op, nil)
	log, diff := sumLogStats(cs.procs).sub(log0), cs.metrics.Snapshot().Diff(snap0)

	st := reduceWindows(ws, cs.tailQ)
	res.Attempted, res.Failed = st.ops, failed
	tail, tailN := st.tail, float64(st.ops)/float64(len(ws))
	if cs.wholeRunTail {
		var all []float64
		for _, w := range ws {
			all = append(all, w.latMs...)
		}
		tail, tailN = exact(quantile(sortedCopy(all), cs.tailQ)), float64(st.ops)
	}
	speed := hostSpeed(st.calibNs.Value)
	res.Samples["host_speed"] = speed
	res.Samples["raw_op_p50_ms"] = st.p50.Value
	latSpeed := 1.0
	if cs.cpuBound {
		latSpeed = speed
	}
	res.set("op_p50_ms", st.p50.over(latSpeed))
	res.set("op_tail_ms", tail.over(latSpeed))
	res.set("ops_per_s", st.opsPerS.times(latSpeed))
	cpuUs, allocs := st.cpuUs.over(speed), st.allocs
	if cs.hotOp != nil {
		var hotOps, hotFailed int
		cpuUs, allocs, hotOps, hotFailed = hotCost(rc.seconds*hotShare, cs.hotOp)
		res.Attempted += hotOps
		res.Failed += hotFailed
		res.Samples["hot_ops"] = float64(hotOps)
	}
	res.set("cpu_us_per_op", cpuUs)
	res.set("allocs_per_op", allocs)
	res.set("log_bytes_per_op", exact(float64(log.bytes)/float64(st.ops)))
	res.set("forces_per_op", exact(float64(log.forces)/float64(st.ops)))
	res.Samples["ops"] = float64(st.ops)
	res.Samples["windows"] = float64(len(ws))
	res.Samples["tail_percentile"] = cs.tailQ * 100
	res.Samples["tail_samples"] = tailN

	// One client and a static discipline force a whole number of
	// times per op; anything else means ops did not all take the
	// same path.
	if log.forces == 0 || log.forces%int64(st.ops) != 0 {
		res.problemf("forces_per_op is not an exact count: %d forces over %d ops", log.forces, st.ops)
	}
	requireMoved(res, diff, obs.WALForces, obs.WALAppends, obs.RPCCalls, obs.ServeExecs)
}

func runClosedTraced(rc *runCtx, res *result, cs closedSpec) {
	// Recording is on in every other window. The windows between, in
	// the same process and deployment and under the same host weather,
	// are the reference the tracing overhead is measured against.
	snap0 := cs.metrics.Snapshot()
	var s0 [numSpanKinds]kindTotals
	var c0 seamCounts
	var l0 logTotals
	ws, failed := measureClosed(rc.seconds, cs.windows, cs.op, func(w *window, i int, start bool) {
		if start {
			w.recording = i%2 == 0
			s0, c0, l0 = rc.rec.reduce(), rc.seams.counts(), sumLogStats(cs.procs)
			rc.rec.on.Store(w.recording)
			return
		}
		rc.rec.on.Store(false)
		w.counts, w.log = rc.seams.counts().sub(c0), sumLogStats(cs.procs).sub(l0)
		for k, t := range rc.rec.reduce() {
			w.spans[k] = kindTotals{t.Count - s0[k].Count, t.Total - s0[k].Total, t.Self - s0[k].Self}
		}
	})
	var on, off []window
	for _, w := range ws {
		if w.recording {
			on = append(on, w)
		} else {
			off = append(off, w)
		}
	}
	st, ref := reduceWindows(on, cs.tailQ), reduceWindows(off, cs.tailQ)
	res.Attempted, res.Failed = st.ops+ref.ops, failed
	res.Samples["ops"] = float64(st.ops)
	res.Samples["reference_ops"] = float64(ref.ops)
	requireMoved(res, cs.metrics.Snapshot().Diff(snap0), obs.WALForces, obs.WALAppends, obs.RPCCalls, obs.ServeExecs)
	if st.ops == 0 {
		res.problemf("traced run measured no ops")
		return
	}

	// The ledger is drawn up for the quietest recorded window, so that
	// its rows are what the code costs and not what the host added, and
	// so that they sum to that window's own mean latency.
	quiet := on[0]
	for _, w := range on[1:] {
		if w.ops > 0 && (quiet.ops == 0 || w.meanMs() < quiet.meanMs()) {
			quiet = w
		}
	}
	in := cs.layers
	in.ops, in.wall = quiet.ops, quiet.wall
	in.tracedMeanMs = quiet.meanMs()
	in.spans, in.counts, in.log = quiet.spans, quiet.counts, quiet.log
	in.hostSpeed = hostSpeed(st.calibNs.Value)
	fillLayers(rc, res, in)
	if ref.p50.Value > 0 {
		res.set("bench.trace_overhead_frac", exact((st.p50.Value-ref.p50.Value)/ref.p50.Value))
	}
}
