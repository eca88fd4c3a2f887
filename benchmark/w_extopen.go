package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	phoenix "repro"
	"repro/internal/obs"
)

// ext-open-sim: External→Persistent Counter.Add on eight contexts of
// one process, optimized logging with group commit on, logging to the
// shared simulated disk. Arrivals are evenly spaced at three fixed
// rates — an open loop, so a slow server faces the same load and its
// queue shows — and each call's latency counts from when it was due,
// not from when a worker got to it. CPU is a few percent of latency
// here: only how forces are scheduled and combined moves this workload.

const (
	openContexts = 8
	// openLimitMs is the latency limit a rate must meet, on the tail
	// percentile, to count as sustained.
	openLimitMs = 60.0
	openTailQ   = 0.90
)

// openRates are the offered loads, calls per second: about a quarter,
// a half and three quarters of the closed-loop saturation rate of the
// deployment at the commit that defined the benchmark.
var openRates = [3]float64{100, 200, 300}

// openSample is one call of an open-loop phase.
type openSample struct {
	dueMs  float64 // due time, from the start of the phase
	latMs  float64 // completion minus due time
	lateMs float64 // how late the generator handed it to its worker
	ok     bool
}

// runOpenPhase offers n = rate × dur evenly spaced arrivals to nctx
// single-threaded servers, arrival i going to context order[i % len].
// One FIFO worker per context calls call(ctx); the generator never
// waits for a worker. It returns once every arrival has been served.
func runOpenPhase(rate float64, dur time.Duration, nctx int, order []int, call func(ctx int) bool) []openSample {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	samples := make([]openSample, n)
	type job struct {
		i   int
		due time.Time
	}
	queues := make([]chan job, nctx)
	var wg sync.WaitGroup
	for c := range queues {
		// Sized to the number of sends, so the generator cannot block
		// on a slow server: that would turn the loop closed.
		queues[c] = make(chan job, n)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := range queues[c] {
				ok := call(c)
				samples[j.i].latMs = float64(time.Since(j.due)) / float64(time.Millisecond)
				samples[j.i].ok = ok
			}
		}(c)
	}
	start := time.Now().Add(2 * time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		samples[i].dueMs = float64(due.Sub(start)) / float64(time.Millisecond)
		samples[i].lateMs = float64(time.Since(due)) / float64(time.Millisecond)
		queues[order[i%len(order)]] <- job{i, due}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return samples
}

// phaseStats is the reduction of one open-loop phase.
type phaseStats struct {
	rate      float64
	n, failed int
	p50, tail estimate // over ten windows (by due time), the quietest window's p50 / tail percentile
	meanMs    float64
	windowsOK int     // windows whose tail percentile met the limit
	goodput   float64 // calls per second answered correctly within the limit
	latePct99 float64 // generator lateness, ms
	sustained bool
}

func reducePhase(rate float64, dur time.Duration, s []openSample) phaseStats {
	ps := phaseStats{rate: rate, n: len(s)}
	wins := make([][]float64, numWindows)
	winMs := float64(dur) / float64(time.Millisecond) / float64(numWindows)
	var late []float64
	var sum, lastDone float64
	within := 0
	for _, x := range s {
		w := int(x.dueMs / winMs)
		if w >= numWindows {
			w = numWindows - 1
		}
		wins[w] = append(wins[w], x.latMs)
		late = append(late, x.lateMs)
		sum += x.latMs
		if !x.ok {
			ps.failed++
		} else if x.latMs <= openLimitMs {
			within++
		}
		if done := x.dueMs + x.latMs; done > lastDone {
			lastDone = done
		}
	}
	var p50s, tails []float64
	for _, w := range wins {
		if len(w) == 0 {
			continue
		}
		sort.Float64s(w)
		p50s = append(p50s, quantile(w, 0.5))
		t := quantile(w, openTailQ)
		tails = append(tails, t)
		if t <= openLimitMs {
			ps.windowsOK++
		}
	}
	ps.p50, ps.tail = floorOf(p50s), floorOf(tails)
	ps.meanMs = sum / float64(len(s))
	ps.latePct99 = quantile(sortedCopy(late), 0.99)
	if lastDone > 0 {
		ps.goodput = float64(within) / (lastDone / 1e3)
	}
	// A rate is sustained when at least seven of the ten windows meet
	// the limit and nothing failed: a backlog that grows fails the
	// later windows however good the early ones were.
	ps.sustained = ps.failed == 0 && ps.windowsOK*10 >= 7*len(tails)
	return ps
}

type openEnv struct {
	u     *phoenix.Universe
	p     *phoenix.Process
	refs  [openContexts]*phoenix.Ref
	model [openContexts]int // each touched only by its context's worker
	order []int
}

// call performs Add(1) on one context and checks the running count.
// Calls to one context are serialized by its worker, so the model
// needs no lock.
func (e *openEnv) call(ctx int) bool {
	e.model[ctx]++
	sp := tracer.begin(spanCall)
	res, err := e.refs[ctx].Call("Add", 1)
	tracer.end(sp)
	return err == nil && len(res) == 1 && res[0] == any(e.model[ctx])
}

func (e *openEnv) close() { e.p.Close() }

// setupExtOpen deploys the eight counters on the simulated disk; hot
// puts the disk and the universe on a clock that never sleeps.
func setupExtOpen(rc *runCtx, dir string, hot bool) (*openEnv, error) {
	sim, clock := newSimDisk(hot)
	u, err := rc.universe(dir, sim, clock)
	if err != nil {
		return nil, err
	}
	m, err := u.AddMachine("evo2")
	if err != nil {
		return nil, err
	}
	cfg := phoenix.Config{
		LogMode:          phoenix.LogOptimized,
		SpecializedTypes: true,
		WAL:              phoenix.WALConfig{GroupCommit: phoenix.GroupCommit{Enabled: true}},
	}
	e := &openEnv{u: u, order: newLCG(rc.seed).perm(openContexts)}
	if e.p, err = m.StartProcess("srv", cfg); err != nil {
		return nil, err
	}
	for c := range e.refs {
		h, err := e.p.Create(ctxName(c), &Counter{})
		if err != nil {
			return nil, err
		}
		e.refs[c] = u.ExternalRef(h.URI())
	}
	// Warm up: a short burst through every context.
	for _, s := range runOpenPhase(openRates[0], 160*time.Millisecond, openContexts, e.order, e.call) {
		if !s.ok {
			return nil, fmt.Errorf("warm-up call failed or returned the wrong count")
		}
	}
	return e, nil
}

// phases runs the three rates for dur each and reduces them.
func (e *openEnv) phases(dur time.Duration) (ps [3]phaseStats, logs [3]logTotals) {
	procs := []*phoenix.Process{e.p}
	for i, rate := range openRates {
		l0 := sumLogStats(procs)
		ps[i] = reducePhase(rate, dur, runOpenPhase(rate, dur, openContexts, e.order, e.call))
		logs[i] = sumLogStats(procs).sub(l0)
	}
	return ps, logs
}

// best is the highest sustained phase, or the lowest rate when none is.
func best(ps [3]phaseStats) phaseStats {
	b := ps[0]
	for _, p := range ps[1:] {
		if p.sustained {
			b = p
		}
	}
	return b
}

func runExtOpen(rc *runCtx) (*result, error) {
	res := newResult(rc, "ext-open-sim")
	e, setup, err := setupBest(rc, 3, false, func(dir string) (*openEnv, error) { return setupExtOpen(rc, dir, false) }, (*openEnv).close)
	if err != nil {
		return nil, err
	}
	defer e.close()
	res.set("setup_s", setup)
	snap0 := e.u.Metrics().Snapshot()
	moved := func() {
		requireMoved(res, e.u.Metrics().Snapshot().Diff(snap0), obs.WALForces, obs.WALAppends, obs.ServeExecs)
	}
	const high = 2

	if !rc.traced {
		// CPU time and allocations per call come from the same
		// deployment on a clock that never sleeps, one caller visiting
		// the contexts in the same order; see closedSpec.hotOp.
		hot, err := setupExtOpen(rc, filepath.Join(rc.dir, "hot"), true)
		if err != nil {
			return nil, err
		}
		defer hot.close()

		dur := time.Duration(rc.seconds * (1 - hotShare) / 3 * float64(time.Second))
		ps, logs := e.phases(dur)
		total := 0
		for _, p := range ps {
			total += p.n
			res.Failed += p.failed
		}
		next := 0
		cpuUs, allocs, hotOps, hotFailed := hotCost(rc.seconds*hotShare, func() bool {
			next++
			return hot.call(hot.order[next%openContexts])
		})
		res.Attempted, res.Failed = total+hotOps, res.Failed+hotFailed
		hi := ps[high]
		res.set("op_p50_ms", hi.p50)
		res.set("op_tail_ms", hi.tail)
		res.set("ops_per_s", exact(best(ps).goodput))
		res.set("cpu_us_per_op", cpuUs)
		res.set("allocs_per_op", allocs)
		res.set("log_bytes_per_op", exact(float64(logs[high].bytes)/float64(hi.n)))
		res.set("forces_per_op", exact(float64(logs[high].forces)/float64(hi.n)))
		res.Samples["ops"] = float64(total)
		res.Samples["hot_ops"] = float64(hotOps)
		res.Samples["ops_at_high_rate"] = float64(hi.n)
		res.Samples["tail_percentile"] = openTailQ * 100
		res.Samples["tail_samples"] = float64(hi.n) / float64(numWindows)
		res.Samples["max_rate_ok"] = sustainedRate(ps)
		res.Samples["gen_late_p99_ms"] = hi.latePct99
		moved()
		return res, nil
	}

	// Traced: the high rate alone with recording off as the overhead
	// reference, then all three rates with recording on, a quarter of
	// the interval each.
	dur := time.Duration(rc.seconds / 4 * float64(time.Second))
	ref := reducePhase(openRates[high], dur, runOpenPhase(openRates[high], dur, openContexts, e.order, e.call))
	c0 := rc.seams.counts()
	rc.rec.on.Store(true)
	start := time.Now()
	ps, logs := e.phases(dur)
	wall := time.Since(start)
	rc.rec.on.Store(false)

	var log logTotals
	total := 0
	var sumMs float64
	for i, p := range ps {
		total += p.n
		sumMs += p.meanMs * float64(p.n)
		res.Failed += p.failed
		log = log.add(logs[i])
	}
	res.Attempted = total + ref.n
	res.Failed += ref.failed
	res.Samples["ops"] = float64(total)
	for i, name := range []string{"low", "mid", "high"} {
		res.set("load."+name+"_p50_ms", ps[i].p50)
		res.set("load."+name+"_tail_ms", ps[i].tail)
	}
	res.set("load.max_rate_ok", exact(sustainedRate(ps)))
	res.set("bench.gen_late_p99_ms", exact(ps[high].latePct99))
	moved()
	fillLayers(rc, res, layerInput{
		ops: total, wall: wall,
		tracedMeanMs: sumMs / float64(total),
		spans:        rc.rec.reduce(), hostSpeed: hostSpeed(calibrate(setupCalib)),
		counts: rc.seams.counts().sub(c0), log: log,
		replayObjs: counterObjs(openContexts),
		stateObj:   &Counter{N: e.model[0]},
		scanDir:    e.p.LogDir(),
	})
	// Combining is a property of load: report it where it is highest.
	if logs[high].forces > 0 {
		res.set("wal.calls_per_sync", exact(float64(ps[high].n)/float64(logs[high].forces)))
	}
	if ref.meanMs > 0 {
		res.set("bench.trace_overhead_frac", exact((ps[high].meanMs-ref.meanMs)/ref.meanMs))
	}
	return res, nil
}

// sustainedRate is the highest offered rate that was sustained, 0 when
// none was.
func sustainedRate(ps [3]phaseStats) float64 {
	if b := best(ps); b.sustained {
		return b.rate
	}
	return 0
}
