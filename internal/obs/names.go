package obs

// Canonical metric names. Dotted, grouped by subsystem. The wal.* group
// is accounted at the device boundary by the log manager (process
// totals); everything else is accounted by the runtime's message
// interceptors, recovery manager and transport.
//
// The views below are the only code that resolves a name into a
// registry. Every constant here is resolved by exactly one view field
// (TestViewsResolveAllFields), listed in README's Observability section
// (TestReadmeListsEveryMetric) and moved by a test workload
// (TestEveryMetricMoves in internal/core).
const (
	// --- log manager, device boundary (internal/wal) ---

	// WALAppends counts records appended to the log buffer.
	WALAppends = "wal.appends"
	// WALForces counts forces that reached the device. Forcing an
	// already-clean log is free (paper Section 3.1's combined forces)
	// and is counted under WALCleanForces instead.
	WALForces = "wal.forces"
	// WALCleanForces counts force requests that found nothing dirty.
	WALCleanForces = "wal.clean_forces"
	// WALPhysicalWrites counts buffer flushes into segment files.
	WALPhysicalWrites = "wal.physical_writes"
	// WALBytesWritten totals payload+framing bytes flushed.
	WALBytesWritten = "wal.bytes_written"
	// WALTrimmedBytes totals log space reclaimed by TrimHead.
	WALTrimmedBytes = "wal.trimmed_bytes"
	// WALReadOps counts device reads of segment files — one per refill
	// of a reader's block (a read-ahead block, or a replay worker's held
	// backlog), however many records it serves — and WALReadBytes the
	// bytes they returned (recovery's scans, chain walks and the
	// open-time tail check).
	WALReadOps   = "wal.read.ops"
	WALReadBytes = "wal.read.bytes"
	// WALForceMicros is the latency distribution of device forces.
	WALForceMicros = "wal.force_micros"
	// WALAppendBytes is the size distribution of appended records.
	WALAppendBytes = "wal.append_bytes"

	// --- force combining (internal/wal syncTarget, group.go), with the
	// commit window on or off. Every force request ends as a device
	// sync it led, a sync it rode, or a clean force: wal.forces +
	// wal.group.syncs_saved + wal.clean_forces add up to the total
	// force requests. ---

	// WALGroupBatchSize is the distribution of requests satisfied per
	// device sync, its leader included (mean > 1 means forces are
	// combining).
	WALGroupBatchSize = "wal.group.batch_size"
	// WALGroupWaitMicros is how long a force request that needed a
	// device sync took from arrival to stable (commit window + waiting
	// for the leader + sync latency).
	WALGroupWaitMicros = "wal.group.wait_micros"
	// WALGroupSyncsSaved counts force requests satisfied by a device
	// sync they did not issue — the paper's combined forces, made
	// deliberate.
	WALGroupSyncsSaved = "wal.group.syncs_saved"

	// --- log records by kind (the paper's message kinds 1-4 plus
	// creation, state and checkpoint records) ---

	RecCreation      = "rec.creation"
	RecIncoming      = "rec.incoming"       // message 1, long record
	RecReplySent     = "rec.reply_sent"     // message 2, short record (Algorithm 3)
	RecReplyContent  = "rec.reply_content"  // message 2 in full / lazy last-call reply
	RecOutgoing      = "rec.outgoing"       // message 3 (baseline only)
	RecOutgoingReply = "rec.outgoing_reply" // message 4
	RecCtxState      = "rec.ctx_state"
	RecBeginCkpt     = "rec.begin_ckpt"
	RecCkptCtxTable  = "rec.ckpt_ctx_table"
	RecCkptLastCall  = "rec.ckpt_last_call"
	RecEndCkpt       = "rec.end_ckpt"

	// --- interceptions by logging discipline (server side of each
	// incoming call; subordinate calls are client-side direct dispatch) ---

	InterceptAlgo1       = "intercept.algo1"       // baseline persistent
	InterceptAlgo2       = "intercept.algo2"       // optimized persistent↔persistent
	InterceptAlgo3       = "intercept.algo3"       // optimized, external client
	InterceptFunctional  = "intercept.functional"  // Algorithm 4 server
	InterceptReadOnly    = "intercept.readonly"    // Algorithm 5 treatment
	InterceptSubordinate = "intercept.subordinate" // unlogged in-context dispatch

	// --- per-site force accounting (the paper's Tables 4-5 "forces per
	// call" argument). Only forces that reached the device are counted;
	// a clean-log force counts nowhere here. ---

	ForceAtIncoming      = "force.at_incoming"       // server, after logging message 1
	ForceAtReply         = "force.at_reply"          // server, at message 2 send
	ForceAtSend          = "force.at_send"           // client, at message 3 send
	ForceAtOutgoingReply = "force.at_outgoing_reply" // client, after message 4 (baseline)

	// Forces the optimized disciplines elided (counted at the client
	// where the baseline would have forced).
	ElideFunctional = "force.elided_functional" // Algorithm 4: pure server
	ElideReadOnly   = "force.elided_readonly"   // Algorithm 5: read-only call
	ElideMultiCall  = "force.elided_multicall"  // Section 3.5 first-call skip

	// --- checkpointing and log management ---

	Checkpoints = "ckpt.process"
	StateSaves  = "ckpt.state_saves"
	Trims       = "ckpt.trims"
	// A crash whose log discard failed: the log was not cut back to
	// its stable watermark, so the restart image is not the modelled one.
	CrashDiscardErrors = "ckpt.crash_discard_errors"

	// --- recovery ---

	RecoveryRuns     = "recovery.runs"
	ContextsRestored = "recovery.contexts_restored"
	ReplayedCalls    = "recovery.replayed_calls"
	SuppressedSends  = "recovery.suppressed_sends"

	// The pass and total histograms observe RecoveryStats' durations:
	// universe-clock microseconds, model time under a virtual clock.
	RecoveryPass1Micros = "recovery.pass1_micros"
	RecoveryPass2Micros = "recovery.pass2_micros"
	RecoveryMicros      = "recovery.total_micros"

	// --- per-context replay. These account how Pass 2 actually got
	// done, context by context, and what admission latency looked like.
	// The names say "lazy" because lazy admission introduced them; the
	// replay engine reports the first three in eager runs too (where a
	// touch is a resumed tail call reaching a same-process context).
	// Durations are universe-clock microseconds (model time under a
	// virtual bench clock), as are the recovery.*_micros above. ---

	// RecoveryLazyOnDemand counts contexts whose backlog replayed
	// because a call touched them first.
	RecoveryLazyOnDemand = "recovery.lazy.on_demand_replays"
	// RecoveryLazyBackground counts contexts replayed by the background
	// worker before any call arrived.
	RecoveryLazyBackground = "recovery.lazy.background_replays"
	// RecoveryLazyCtxReplayMicros is the per-context backlog replay
	// latency — what a first-touch call waits on top of its own work.
	RecoveryLazyCtxReplayMicros = "recovery.lazy.ctx_replay_micros"
	// RecoveryLazyTTFCMicros is time-to-first-call: recovery start to
	// the first call admitted past a ready gate — perceived downtime.
	// Observed in lazy mode only.
	RecoveryLazyTTFCMicros = "recovery.lazy.ttfc_micros"

	// --- rpc / transport ---

	RPCCalls   = "rpc.calls"
	RPCRetries = "rpc.retries"
	// RPCCallMicros is the client-observed round trip including
	// redrives (wall time; under a scaled bench clock it is scaled
	// wall time, not model time).
	RPCCallMicros = "rpc.call_micros"
	// ServeExecs counts method executions dispatched into components;
	// ServeExecMicros is their duration distribution.
	ServeExecs      = "serve.execs"
	ServeExecMicros = "serve.exec_micros"

	TransportSends      = "transport.sends"
	TransportSendErrors = "transport.send_errors"
	TransportBytesOut   = "transport.bytes_out"
	TransportBytesIn    = "transport.bytes_in"
	TransportRTMicros   = "transport.rt_micros"

	// --- causal tracing (internal/obs/trace). The stage histograms are
	// per-leg latency distributions of traced interactions in
	// universe-clock microseconds — under a scaled or virtual bench
	// clock they are model time, unlike the serve/rpc histograms, which
	// read the host's monotonic stopwatch. ---

	// TraceSpans counts spans recorded into flight recorders.
	TraceSpans = "trace.spans"
	// TraceRingOverwrites counts spans that displaced an older span
	// from a full ring — a rising rate means the ring is undersized
	// for the retention you want at crash time.
	TraceRingOverwrites = "trace.ring_overwrites"

	TraceClientInterceptMicros = "trace.stage.client_intercept_micros"
	TraceTransportMicros       = "trace.stage.transport_micros"
	TraceServerInterceptMicros = "trace.stage.server_intercept_micros"
	TraceWALAppendMicros       = "trace.stage.wal_append_micros"
	TraceSyncWaitMicros        = "trace.stage.sync_wait_micros"
	TraceExecuteMicros         = "trace.stage.execute_micros"
	TraceReplyMicros           = "trace.stage.reply_micros"
	TraceClientResumeMicros    = "trace.stage.client_resume_micros"
	TraceRecoveryScanMicros    = "trace.stage.recovery_scan_micros"
	TraceReplayMicros          = "trace.stage.replay_micros"
	TraceDemandReplayMicros    = "trace.stage.demand_replay_micros"
)

// TraceStageMicros lists the per-stage trace histograms in pipeline
// order, for breakdown reports (phoenix-bench -trace, phoenix-trace).
var TraceStageMicros = []string{
	TraceClientInterceptMicros,
	TraceTransportMicros,
	TraceServerInterceptMicros,
	TraceWALAppendMicros,
	TraceSyncWaitMicros,
	TraceExecuteMicros,
	TraceReplyMicros,
	TraceClientResumeMicros,
	TraceRecoveryScanMicros,
	TraceReplayMicros,
	TraceDemandReplayMicros,
}

// WALMetrics pre-resolves the device-boundary metrics for the log
// manager's hot path. All fields of the view returned for a nil
// registry are nil, which Counter/Histogram methods tolerate.
type WALMetrics struct {
	Appends        *Counter
	Forces         *Counter
	CleanForces    *Counter
	PhysicalWrites *Counter
	BytesWritten   *Counter
	TrimmedBytes   *Counter
	ReadOps        *Counter
	ReadBytes      *Counter
	ForceMicros    *Histogram
	AppendBytes    *Histogram

	GroupBatchSize  *Histogram
	GroupWaitMicros *Histogram
	GroupSyncsSaved *Counter
}

// WALView resolves the wal.* bundle from r.
func WALView(r *Registry) *WALMetrics {
	return &WALMetrics{
		Appends:        r.counter(WALAppends),
		Forces:         r.counter(WALForces),
		CleanForces:    r.counter(WALCleanForces),
		PhysicalWrites: r.counter(WALPhysicalWrites),
		BytesWritten:   r.counter(WALBytesWritten),
		TrimmedBytes:   r.counter(WALTrimmedBytes),
		ReadOps:        r.counter(WALReadOps),
		ReadBytes:      r.counter(WALReadBytes),
		ForceMicros:    r.histogram(WALForceMicros),
		AppendBytes:    r.histogram(WALAppendBytes),

		GroupBatchSize:  r.histogram(WALGroupBatchSize),
		GroupWaitMicros: r.histogram(WALGroupWaitMicros),
		GroupSyncsSaved: r.counter(WALGroupSyncsSaved),
	}
}

// TransportMetrics pre-resolves the transport.* bundle for the
// instrumented network's Send path.
type TransportMetrics struct {
	Sends      *Counter
	SendErrors *Counter
	BytesOut   *Counter
	BytesIn    *Counter
	RTMicros   *Histogram
}

// TransportView resolves the transport.* bundle from r.
func TransportView(r *Registry) *TransportMetrics {
	return &TransportMetrics{
		Sends:      r.counter(TransportSends),
		SendErrors: r.counter(TransportSendErrors),
		BytesOut:   r.counter(TransportBytesOut),
		BytesIn:    r.counter(TransportBytesIn),
		RTMicros:   r.histogram(TransportRTMicros),
	}
}

// TraceMetrics pre-resolves the trace.* bundle for the flight
// recorder's hot path: the span/overwrite counters and one latency
// histogram per stage (the trace package maps them into an array
// indexed by its Stage enum). Nil-registry views are all-nil and the
// update methods tolerate it.
type TraceMetrics struct {
	Spans          *Counter
	RingOverwrites *Counter

	ClientInterceptMicros *Histogram
	TransportMicros       *Histogram
	ServerInterceptMicros *Histogram
	WALAppendMicros       *Histogram
	SyncWaitMicros        *Histogram
	ExecuteMicros         *Histogram
	ReplyMicros           *Histogram
	ClientResumeMicros    *Histogram
	RecoveryScanMicros    *Histogram
	ReplayMicros          *Histogram
	DemandReplayMicros    *Histogram
}

// TraceView resolves the trace.* bundle from r.
func TraceView(r *Registry) *TraceMetrics {
	return &TraceMetrics{
		Spans:          r.counter(TraceSpans),
		RingOverwrites: r.counter(TraceRingOverwrites),

		ClientInterceptMicros: r.histogram(TraceClientInterceptMicros),
		TransportMicros:       r.histogram(TraceTransportMicros),
		ServerInterceptMicros: r.histogram(TraceServerInterceptMicros),
		WALAppendMicros:       r.histogram(TraceWALAppendMicros),
		SyncWaitMicros:        r.histogram(TraceSyncWaitMicros),
		ExecuteMicros:         r.histogram(TraceExecuteMicros),
		ReplyMicros:           r.histogram(TraceReplyMicros),
		ClientResumeMicros:    r.histogram(TraceClientResumeMicros),
		RecoveryScanMicros:    r.histogram(TraceRecoveryScanMicros),
		ReplayMicros:          r.histogram(TraceReplayMicros),
		DemandReplayMicros:    r.histogram(TraceDemandReplayMicros),
	}
}

// RuntimeMetrics pre-resolves the interception, checkpoint, recovery
// and rpc metrics for the core runtime's hot paths.
type RuntimeMetrics struct {
	RecCreation      *Counter
	RecIncoming      *Counter
	RecReplySent     *Counter
	RecReplyContent  *Counter
	RecOutgoing      *Counter
	RecOutgoingReply *Counter
	RecCtxState      *Counter
	RecBeginCkpt     *Counter
	RecCkptCtxTable  *Counter
	RecCkptLastCall  *Counter
	RecEndCkpt       *Counter

	InterceptAlgo1       *Counter
	InterceptAlgo2       *Counter
	InterceptAlgo3       *Counter
	InterceptFunctional  *Counter
	InterceptReadOnly    *Counter
	InterceptSubordinate *Counter

	ForceAtIncoming      *Counter
	ForceAtReply         *Counter
	ForceAtSend          *Counter
	ForceAtOutgoingReply *Counter
	ElideFunctional      *Counter
	ElideReadOnly        *Counter
	ElideMultiCall       *Counter

	Checkpoints        *Counter
	StateSaves         *Counter
	Trims              *Counter
	CrashDiscardErrors *Counter

	RecoveryRuns        *Counter
	ContextsRestored    *Counter
	ReplayedCalls       *Counter
	SuppressedSends     *Counter
	RecoveryPass1Micros *Histogram
	RecoveryPass2Micros *Histogram
	RecoveryMicros      *Histogram

	RecoveryLazyOnDemand        *Counter
	RecoveryLazyBackground      *Counter
	RecoveryLazyCtxReplayMicros *Histogram
	RecoveryLazyTTFCMicros      *Histogram

	RPCCalls        *Counter
	RPCRetries      *Counter
	RPCCallMicros   *Histogram
	ServeExecs      *Counter
	ServeExecMicros *Histogram
}

// RuntimeView resolves the runtime bundle from r.
func RuntimeView(r *Registry) *RuntimeMetrics {
	return &RuntimeMetrics{
		RecCreation:      r.counter(RecCreation),
		RecIncoming:      r.counter(RecIncoming),
		RecReplySent:     r.counter(RecReplySent),
		RecReplyContent:  r.counter(RecReplyContent),
		RecOutgoing:      r.counter(RecOutgoing),
		RecOutgoingReply: r.counter(RecOutgoingReply),
		RecCtxState:      r.counter(RecCtxState),
		RecBeginCkpt:     r.counter(RecBeginCkpt),
		RecCkptCtxTable:  r.counter(RecCkptCtxTable),
		RecCkptLastCall:  r.counter(RecCkptLastCall),
		RecEndCkpt:       r.counter(RecEndCkpt),

		InterceptAlgo1:       r.counter(InterceptAlgo1),
		InterceptAlgo2:       r.counter(InterceptAlgo2),
		InterceptAlgo3:       r.counter(InterceptAlgo3),
		InterceptFunctional:  r.counter(InterceptFunctional),
		InterceptReadOnly:    r.counter(InterceptReadOnly),
		InterceptSubordinate: r.counter(InterceptSubordinate),

		ForceAtIncoming:      r.counter(ForceAtIncoming),
		ForceAtReply:         r.counter(ForceAtReply),
		ForceAtSend:          r.counter(ForceAtSend),
		ForceAtOutgoingReply: r.counter(ForceAtOutgoingReply),
		ElideFunctional:      r.counter(ElideFunctional),
		ElideReadOnly:        r.counter(ElideReadOnly),
		ElideMultiCall:       r.counter(ElideMultiCall),

		Checkpoints:        r.counter(Checkpoints),
		StateSaves:         r.counter(StateSaves),
		Trims:              r.counter(Trims),
		CrashDiscardErrors: r.counter(CrashDiscardErrors),

		RecoveryRuns:        r.counter(RecoveryRuns),
		ContextsRestored:    r.counter(ContextsRestored),
		ReplayedCalls:       r.counter(ReplayedCalls),
		SuppressedSends:     r.counter(SuppressedSends),
		RecoveryPass1Micros: r.histogram(RecoveryPass1Micros),
		RecoveryPass2Micros: r.histogram(RecoveryPass2Micros),
		RecoveryMicros:      r.histogram(RecoveryMicros),

		RecoveryLazyOnDemand:        r.counter(RecoveryLazyOnDemand),
		RecoveryLazyBackground:      r.counter(RecoveryLazyBackground),
		RecoveryLazyCtxReplayMicros: r.histogram(RecoveryLazyCtxReplayMicros),
		RecoveryLazyTTFCMicros:      r.histogram(RecoveryLazyTTFCMicros),

		RPCCalls:        r.counter(RPCCalls),
		RPCRetries:      r.counter(RPCRetries),
		RPCCallMicros:   r.histogram(RPCCallMicros),
		ServeExecs:      r.counter(ServeExecs),
		ServeExecMicros: r.histogram(ServeExecMicros),
	}
}
