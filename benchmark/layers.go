package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/rpc"
	"repro/internal/serial"
	"repro/internal/wal"
)

// The per-layer ledger. Rows come from three places, all outside the
// program under test: the spans and counts the seams recorded, the
// counters the product already publishes (LogStats, RecoveryStats), and
// — for layers with no seam — replaying what was captured at the seams
// against the layer's public functions.

// layerInput is what a traced run hands to fillLayers.
type layerInput struct {
	ops          int
	wall         time.Duration
	tracedMeanMs float64 // mean op latency with recording on
	spans        [numSpanKinds]kindTotals
	counts       seamCounts
	log          logTotals
	hostSpeed    float64

	// replayObjs maps a component name (last URI segment) to an
	// equivalent object that captured calls to it can be re-dispatched
	// on; only leaf methods (no outgoing calls) qualify.
	replayObjs map[string]any
	// stateObj is a representative component state for the serial rows.
	stateObj any
	// scanDir is a process's recovery-log directory; a copy of it is
	// scanned with the shard cursors.
	scanDir string
}

// timeLoop times fn in batches of at least replayBatchDur (and at most
// replayMaxIter calls) each — six of them, two on -quick — and returns
// the quickest batch's ns per call, the floor like every other time
// here, and the heap allocations per call.
func (rc *runCtx) timeLoop(fn func()) (ns, allocs float64) {
	batches := 6
	if rc.quick {
		batches = 2
	}
	fn() // warm caches and lazy initialisation outside the timing
	ns = math.Inf(1)
	var iters int
	m0 := mallocs()
	for b := 0; b < batches; b++ {
		n := 0
		start := time.Now()
		for batch := 16; ; batch *= 2 {
			for i := 0; i < batch; i++ {
				fn()
			}
			n += batch
			if time.Since(start) >= replayBatchDur || n >= replayMaxIter {
				break
			}
		}
		ns = math.Min(ns, float64(time.Since(start).Nanoseconds())/float64(n))
		iters += n
	}
	return ns, float64(mallocs()-m0) / float64(iters)
}

const (
	replayBatchDur = 12 * time.Millisecond
	replayMaxIter  = 1 << 16
	replayFrames   = 256 // captured pairs each replay cycles through
)

// decodedPair is a captured frame pair with its decoded envelopes.
type decodedPair struct {
	framePair
	call  *msg.Call
	reply *msg.Reply
}

func decodeFrames(frames []framePair) ([]decodedPair, error) {
	if len(frames) > replayFrames {
		frames = frames[:replayFrames]
	}
	out := make([]decodedPair, 0, len(frames))
	for _, f := range frames {
		c, err := msg.DecodeCall(f.Req)
		if err != nil {
			return nil, fmt.Errorf("captured request: %w", err)
		}
		r, err := msg.DecodeReply(f.Resp)
		if err != nil {
			return nil, fmt.Errorf("captured response: %w", err)
		}
		out = append(out, decodedPair{framePair: f, call: c, reply: r})
	}
	return out, nil
}

// cycle returns a function that applies fn to the pairs round-robin,
// so a timed loop sees the captured mix in captured proportion.
func cycle(pairs []decodedPair, fn func(p *decodedPair)) func() {
	i := 0
	return func() {
		fn(&pairs[i])
		if i++; i == len(pairs) {
			i = 0
		}
	}
}

// msgRows replays the envelope codec over the captured frames.
func msgRows(rc *runCtx, res *result, pairs []decodedPair, sendsPerOp float64) (usPerOp float64) {
	if len(pairs) == 0 {
		return 0
	}
	encCall, a1 := rc.timeLoop(cycle(pairs, func(p *decodedPair) {
		buf, err := msg.EncodeCall(p.call)
		if err != nil {
			panic(err)
		}
		msg.FreeBuf(buf)
	}))
	decCall, a2 := rc.timeLoop(cycle(pairs, func(p *decodedPair) {
		if _, err := msg.DecodeCall(p.Req); err != nil {
			panic(err)
		}
	}))
	encReply, a3 := rc.timeLoop(cycle(pairs, func(p *decodedPair) {
		if _, err := msg.EncodeReply(p.reply); err != nil {
			panic(err)
		}
	}))
	decReply, a4 := rc.timeLoop(cycle(pairs, func(p *decodedPair) {
		if _, err := msg.DecodeReply(p.Resp); err != nil {
			panic(err)
		}
	}))
	res.set("msg.encode_call_ns", exact(encCall))
	res.set("msg.decode_call_ns", exact(decCall))
	res.set("msg.encode_reply_ns", exact(encReply))
	res.set("msg.decode_reply_ns", exact(decReply))
	// A frame is encoded once and decoded once; a pair is two frames.
	res.set("msg.allocs_per_frame", exact((a1+a2+a3+a4)/2))
	res.set("msg.frames_per_op", exact(2*sendsPerOp))
	usPerOp = sendsPerOp * (encCall + decCall + encReply + decReply) / 1e3
	res.set("msg.us_per_op", exact(usPerOp))
	return usPerOp
}

// componentOf returns the last segment of a component URI.
func componentOf(u ids.URI) string {
	_, _, comp, err := u.Split()
	if err != nil {
		return ""
	}
	return comp
}

// rpcRows replays marshalled dispatch: the client half (EncodeArgs,
// DecodeResults) on every captured pair, the server half
// (InvokeEncoded: decode args, reflective call, encode results) on the
// pairs whose target has a replay object. Calls that cannot be
// replayed (their methods call out) are charged the replayable mean.
func rpcRows(rc *runCtx, res *result, pairs []decodedPair, objs map[string]any, dispatchesPerOp float64) (usPerOp float64, err error) {
	if len(pairs) == 0 {
		return 0, nil
	}
	type invocation struct {
		d    *rpc.Dispatcher
		call *msg.Call
	}
	var invs []invocation
	disp := map[string]*rpc.Dispatcher{}
	args := make([][]any, len(pairs))
	for i := range pairs {
		c := pairs[i].call
		if args[i], err = rpc.DecodeResults(c.Args); err != nil {
			return 0, fmt.Errorf("captured args of %s: %w", c.Method, err)
		}
		name := componentOf(c.Target)
		obj, ok := objs[name]
		if !ok {
			continue
		}
		d := disp[name]
		if d == nil {
			if d, err = rpc.NewDispatcher(obj); err != nil {
				return 0, err
			}
			disp[name] = d
		}
		if _, ok := d.Method(c.Method); ok {
			invs = append(invs, invocation{d, c})
		}
	}
	var invoke, invokeAllocs float64
	if len(invs) > 0 {
		i := 0
		invoke, invokeAllocs = rc.timeLoop(func() {
			in := invs[i]
			if _, _, _, err := in.d.InvokeEncoded(in.call.Method, in.call.Args, in.call.NumArgs); err != nil {
				panic(err)
			}
			if i++; i == len(invs) {
				i = 0
			}
		})
	}
	i := 0
	encArgs, _ := rc.timeLoop(func() {
		if _, _, err := rpc.EncodeArgs(args[i]...); err != nil {
			panic(err)
		}
		if i++; i == len(args) {
			i = 0
		}
	})
	decRes, _ := rc.timeLoop(cycle(pairs, func(p *decodedPair) {
		if p.reply.AppErr != "" || p.reply.Fault != "" {
			return
		}
		if _, err := rpc.DecodeResults(p.reply.Results); err != nil {
			panic(err)
		}
	}))
	res.set("rpc.invoke_ns", exact(invoke))
	res.set("rpc.invoke_allocs", exact(invokeAllocs))
	res.set("rpc.encode_args_ns", exact(encArgs))
	res.set("rpc.decode_results_ns", exact(decRes))
	res.set("rpc.dispatches_per_op", exact(dispatchesPerOp))
	usPerOp = dispatchesPerOp * (invoke + encArgs + decRes) / 1e3
	res.set("rpc.us_per_op", exact(usPerOp))
	return usPerOp, nil
}

// logAppender is the slice of wal.Writer the append replay drives. The
// replay writes to a private log directory of the benchmark's own, so
// the runtime's force accounting (which the repository's forcesite
// lint protects by restricting who may call wal.Writer directly) is
// not involved; going through this interface keeps that lint scoped to
// the runtime.
type logAppender interface {
	AppendInto(key uint64, t wal.RecordType, enc wal.PayloadEncoder) (ids.LSN, error)
	SyncTo(lsn ids.LSN) (wal.SyncOutcome, error)
}

// walRows replays appends and append+force at the captured record size
// through a fresh single-shard log, and scans a copy of scanDir with
// the shard cursors.
func walRows(rc *runCtx, res *result, in layerInput) error {
	recBytes := 64
	if in.log.appends > 0 {
		// Mean payload: flushed bytes include a 9-byte frame per record.
		if n := int(in.log.bytes/in.log.appends) - 9; n > 0 {
			recBytes = n
		}
	}
	dir := filepath.Join(rc.dir, "wal-replay")
	set, err := wal.OpenSet(dir, nil, 1)
	if err != nil {
		return err
	}
	var w logAppender = set
	payload := make([]byte, recBytes)
	enc := wal.EncodeFunc(func(dst []byte) ([]byte, error) { return append(dst, payload...), nil })
	var lsn ids.LSN
	appendNs, _ := rc.timeLoop(func() {
		if lsn, err = w.AppendInto(1, 1, enc); err != nil {
			panic(err)
		}
	})
	forceNs, _ := rc.timeLoop(func() {
		if lsn, err = w.AppendInto(1, 1, enc); err != nil {
			panic(err)
		}
		if _, err = w.SyncTo(lsn); err != nil {
			panic(err)
		}
	})
	if err := set.Close(); err != nil {
		return err
	}
	os.RemoveAll(dir)
	res.set("wal.append_ns", exact(appendNs))
	res.set("wal.append_force_ns", exact(forceNs))
	res.Samples["wal.replay_record_bytes"] = float64(recBytes)

	if in.scanDir == "" {
		return nil
	}
	// OpenSet records a shard era file in the directory it opens, so
	// the scan works on a copy and leaves the process's log as it was.
	scanCopy := filepath.Join(rc.dir, "wal-scan")
	if err := copyTree(in.scanDir, scanCopy); err != nil {
		return err
	}
	defer os.RemoveAll(scanCopy)
	scan, err := wal.OpenSet(scanCopy, nil, 0)
	if err != nil {
		return err
	}
	// Whole passes over the log, the quickest one reported.
	best := math.Inf(1)
	for pass, start := 0, time.Now(); pass < 64 && time.Since(start) < 5*replayBatchDur; pass++ {
		records := 0
		passStart := time.Now()
		for _, sh := range scan.Shards() {
			cur, err := sh.Log.ScanFrom(ids.NilLSN)
			if err != nil {
				return err
			}
			for {
				_, ok, err := cur.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				records++
			}
		}
		if records > 0 {
			best = math.Min(best, float64(time.Since(passStart).Nanoseconds())/float64(records))
		}
	}
	if err := scan.Close(); err != nil {
		return err
	}
	if !math.IsInf(best, 1) {
		res.set("wal.scan_ns_per_record", exact(best))
	}
	return nil
}

// serialRows times checkpoint capture and restore of obj.
func serialRows(rc *runCtx, res *result, obj any) error {
	if obj == nil {
		return nil
	}
	var data []byte
	captureNs, _ := rc.timeLoop(func() {
		st, err := serial.Capture(obj)
		if err != nil {
			panic(err)
		}
		if data, err = st.Encode(); err != nil {
			panic(err)
		}
	})
	typ := reflect.TypeOf(obj).Elem()
	var rerr error
	restoreNs, _ := rc.timeLoop(func() {
		st, err := serial.DecodeState(data)
		if err == nil {
			err = serial.Restore(reflect.New(typ).Interface(), st, nil)
		}
		if err != nil {
			rerr = err
		}
	})
	if rerr != nil {
		return rerr
	}
	res.set("serial.capture_ns", exact(captureNs))
	res.set("serial.restore_ns", exact(restoreNs))
	res.set("serial.state_bytes", exact(float64(len(data))))
	return nil
}

// fillLayers computes every per-layer row of a traced run. Rows that
// do not apply to the workload stay 0.
func fillLayers(rc *runCtx, res *result, in layerInput) {
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			res.set(m.Name, exact(0))
		}
	}
	if in.ops == 0 {
		res.problemf("traced run measured no ops")
		return
	}
	ops := float64(in.ops)
	perOp := func(n int64) float64 { return float64(n) / ops }

	tot := in.spans
	if !rc.rec.tree {
		// Without parent links, recover self time from the fixed
		// nesting of the network chain; handler and method-body rows
		// then include whatever ran or waited beneath them.
		tot[spanCall].Self = tot[spanCall].Total - tot[spanNetSend].Total
		tot[spanNetSend].Self = tot[spanNetSend].Total - tot[spanNetHandle].Total
	}
	var spans int64
	for _, t := range tot {
		spans += t.Count
	}
	res.Samples["spans"] = float64(spans)
	selfUs := func(k spanKind) float64 { return float64(tot[k].Self) / 1e3 / ops }

	sendsPerOp := perOp(in.counts.sends)
	res.set("transport.self_us_per_op", exact(selfUs(spanNetSend)))
	res.set("transport.sends_per_op", exact(sendsPerOp))
	res.set("transport.bytes_per_op", exact(perOp(in.counts.sendBytes)))

	diskWaitUs := float64(in.counts.diskWait) / 1e3 / ops
	res.set("disk.writes_per_op", exact(perOp(in.counts.diskWrites)))
	res.set("disk.syncs_per_op", exact(perOp(in.counts.diskSyncs)))
	res.set("disk.wait_ms_per_op", exact(diskWaitUs/1e3))
	res.set("disk.busy_frac", exact(float64(in.counts.diskWait)/float64(in.wall.Nanoseconds())))

	appendBusyUs := float64(in.log.appendBusy) / 1e3 / ops
	syncBusyUs := float64(in.log.syncBusy) / 1e3 / ops
	res.set("wal.append_busy_us_per_op", exact(appendBusyUs))
	res.set("wal.sync_busy_us_per_op", exact(syncBusyUs))
	res.set("wal.appends_per_op", exact(perOp(in.log.appends)))
	res.set("wal.syncs_per_op", exact(perOp(in.log.forces)))
	if in.log.forces > 0 {
		res.set("wal.calls_per_sync", exact(ops/float64(in.log.forces)))
	}

	res.set("app.execute_self_us_per_op", exact(selfUs(spanAppExec)))
	res.set("app.calls_per_op", exact(perOp(tot[spanAppExec].Count)))

	pairs, err := decodeFrames(rc.seams.capturedFrames())
	if err != nil {
		res.problemf("layer replay: %v", err)
	}
	msgUs := msgRows(rc, res, pairs, sendsPerOp)
	rpcUs, err := rpcRows(rc, res, pairs, in.replayObjs, perOp(in.counts.handles))
	if err != nil {
		res.problemf("rpc replay: %v", err)
	}
	if err := walRows(rc, res, in); err != nil {
		res.problemf("wal replay: %v", err)
	}
	if err := serialRows(rc, res, in.stateObj); err != nil {
		res.problemf("serial replay: %v", err)
	}

	clientUs, serverUs := selfUs(spanCall), selfUs(spanNetHandle)
	res.set("core.client_self_us_per_op", exact(clientUs))
	res.set("core.server_self_us_per_op", exact(serverUs))
	// What the two core rows hold once the replayed layers and the
	// log's own busy time (net of the device wait inside it, which the
	// disk row carries) are taken out: interceptors, record
	// construction, tables — and everything unattributed.
	walUs := math.Max(appendBusyUs+syncBusyUs-diskWaitUs, 0)
	res.set("core.remainder_us_per_op", exact(clientUs+serverUs-msgUs-rpcUs-walUs))

	res.set("bench.traced_op_mean_ms", exact(in.tracedMeanMs))
	res.set("bench.host_speed", exact(in.hostSpeed))
	// The ledger: every span's self time, summed, against the op
	// latency the generator measured around them.
	var rowsUs float64
	for k := spanKind(0); k < numSpanKinds; k++ {
		rowsUs += selfUs(k)
	}
	if in.tracedMeanMs > 0 {
		res.set("bench.ledger_gap_frac", exact(math.Abs(in.tracedMeanMs*1e3-rowsUs)/(in.tracedMeanMs*1e3)))
	}
}
