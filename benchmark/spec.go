package main

// The benchmark's fixed vocabulary: workload names, end-to-end metrics
// with the bound by which each may worsen, and per-layer metrics.
// BENCHMARK.json at the repository root declares the same names (a
// test keeps the two in step); later issues cite them, so renaming one
// is a benchmark change of its own.

// metricSpec declares one metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the base value by which an end-to-end
	// metric may worsen before -diff (and the driver) call it a
	// regression. Per-layer metrics carry none.
	Bound float64
	Why   string
}

// endToEnd are the metrics a user of the runtime would see. Every
// workload emits every one of them; what fills each slot on each
// workload is tabulated in README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25, "build universe, deploy, warm up, build the crashed image; quickest of the run's set-ups"},
	{"op_p50_ms", "ms", "lower", 0.25, "median latency of the workload's op (call / session / call at 300/s / eager restart / lazy time-to-first-call)"},
	{"op_tail_ms", "ms", "lower", 0.25, "tail latency of the op (p95 / p95 / p90 at 300/s / restart until drained); percentile and sample count are printed"},
	{"ops_per_s", "1/s", "higher", 0.20, "completed ops per second (open loop: calls/s answered within the limit at the highest sustained rate)"},
	{"cpu_us_per_op", "us", "lower", 0.25, "getrusage user+sys per op, at nominal host speed"},
	{"allocs_per_op", "count", "lower", 0.05, "MemStats.Mallocs delta per op"},
	{"log_bytes_per_op", "B", "lower", 0.02, "bytes flushed to the recovery logs per op, summed over processes"},
	{"forces_per_op", "count", "lower", 0.10, "device syncs per op, summed over processes (exact on the closed loops)"},
}

// perLayer are single-layer metrics from the traced run. A metric that
// does not apply to a workload reads 0 there.
var perLayer = []metricSpec{
	{Name: "msg.encode_call_ns", Unit: "ns", Better: "lower"},
	{Name: "msg.decode_call_ns", Unit: "ns", Better: "lower"},
	{Name: "msg.encode_reply_ns", Unit: "ns", Better: "lower"},
	{Name: "msg.decode_reply_ns", Unit: "ns", Better: "lower"},
	{Name: "msg.allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "msg.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "msg.us_per_op", Unit: "us", Better: "lower"},

	{Name: "rpc.invoke_ns", Unit: "ns", Better: "lower"},
	{Name: "rpc.invoke_allocs", Unit: "count", Better: "lower"},
	{Name: "rpc.encode_args_ns", Unit: "ns", Better: "lower"},
	{Name: "rpc.decode_results_ns", Unit: "ns", Better: "lower"},
	{Name: "rpc.dispatches_per_op", Unit: "count", Better: "lower"},
	{Name: "rpc.us_per_op", Unit: "us", Better: "lower"},

	{Name: "wal.append_busy_us_per_op", Unit: "us", Better: "lower"},
	{Name: "wal.sync_busy_us_per_op", Unit: "us", Better: "lower"},
	{Name: "wal.appends_per_op", Unit: "count", Better: "lower"},
	{Name: "wal.syncs_per_op", Unit: "count", Better: "lower"},
	{Name: "wal.calls_per_sync", Unit: "count", Better: "higher"},
	{Name: "wal.append_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.append_force_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.scan_ns_per_record", Unit: "ns", Better: "lower"},

	{Name: "disk.writes_per_op", Unit: "count", Better: "lower"},
	{Name: "disk.syncs_per_op", Unit: "count", Better: "lower"},
	{Name: "disk.wait_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "disk.busy_frac", Unit: "frac", Better: "lower"},

	{Name: "transport.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "transport.sends_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_per_op", Unit: "B", Better: "lower"},

	{Name: "serial.capture_ns", Unit: "ns", Better: "lower"},
	{Name: "serial.restore_ns", Unit: "ns", Better: "lower"},
	{Name: "serial.state_bytes", Unit: "B", Better: "lower"},

	{Name: "core.client_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "core.server_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "core.remainder_us_per_op", Unit: "us", Better: "lower"},
	{Name: "core.recovery.pass1_ms", Unit: "ms", Better: "lower"},
	{Name: "core.recovery.pass2_ms", Unit: "ms", Better: "lower"},
	{Name: "core.recovery.ttfc_ms", Unit: "ms", Better: "lower"},
	{Name: "core.recovery.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "core.recovery.replay_us_per_call", Unit: "us", Better: "lower"},
	{Name: "core.recovery.scanned_per_replayed", Unit: "count", Better: "lower"},
	{Name: "core.recovery.calls_replayed", Unit: "count", Better: "lower"},
	{Name: "core.recovery.calls_suppressed", Unit: "count", Better: "lower"},
	{Name: "core.recovery.contexts_on_demand", Unit: "count", Better: "lower"},

	{Name: "app.execute_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "app.calls_per_op", Unit: "count", Better: "lower"},

	{Name: "load.low_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "load.low_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "load.mid_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "load.mid_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "load.high_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "load.high_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "load.max_rate_ok", Unit: "1/s", Better: "higher"},

	{Name: "bench.gen_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.host_speed", Unit: "ratio", Better: "lower"},
	{Name: "bench.traced_op_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "bench.ledger_gap_frac", Unit: "frac", Better: "lower"},
}

// workloadSpec names one workload and the function that runs it.
type workloadSpec struct {
	Name string
	Why  string
	Run  func(rc *runCtx) (*result, error)
	// Concurrent says several goroutines run the program under test at
	// once (open-loop callers, the lazy restart's background drain), so
	// spans cannot be nested on one timeline; the one-client workloads
	// run every layer on the caller's goroutine.
	Concurrent bool
}

// workloads in their fixed order.
var workloads = []workloadSpec{
	{"p2p-mem", "Table-4 Persistent->Persistent optimized call, closed loop, memory fs: CPU-bound, so msg/rpc/core/wal-append work shows and device or force-count changes must not", runP2P, false},
	{"store-sim", "Table-8 bookstore session on one simulated 7200-RPM disk, closed loop: wall time is forces x rotation, CPU row exposes struct/slice codec cost", runStore, false},
	{"ext-open-sim", "External->Persistent calls on 8 contexts, open loop at 100/200/300 per s on the simulated disk with group commit: only force scheduling moves it", runExtOpen, true},
	{"restart-mem", "Eager restart of a crashed 64-context image (Table 7): log scan, decode, dispatch and replay do the work; append and force do none", runRestartEager, false},
	{"restart-lazy-mem", "Lazy restart of the same image: time to first call and the cost of draining, where N first touches cost N scans", runRestartLazy, true},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func specByName(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}
