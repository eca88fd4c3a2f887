package obs

// Canonical metric names. Dotted, grouped by subsystem. The wal.* group
// is accounted at the device boundary by the log manager; everything
// else is accounted by the runtime's message interceptors, recovery
// manager and transport.
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

	// --- sharded log (internal/wal set.go). A Set's shards report the
	// plain wal.* and wal.group.* metrics into the same registry, so
	// those stay process totals; the wal.shard.* group covers what is
	// specific to sharding. ---

	// WALShardAppends counts records appended through a sharded Set
	// (zero on single-Log processes).
	WALShardAppends = "wal.shard.appends"
	// WALShardSpread is the distribution of appendable-shard indices
	// receiving appends — a skewed histogram means the CompID hash is
	// not balancing the offered load.
	WALShardSpread = "wal.shard.spread"
	// WALShardStreams is the appendable shard count observed at each
	// Set open.
	WALShardStreams = "wal.shard.streams"
	// WALShardReshards counts reshard eras appended to a log (an open
	// with a shard count different from the layout on disk).
	WALShardReshards = "wal.shard.reshards"

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
	// RecDisciplineChange counts adaptive discipline-change records:
	// promotions, demotions and checkpoint re-emissions made durable.
	RecDisciplineChange = "rec.discipline_change"

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

	// --- recovery ---

	RecoveryRuns        = "recovery.runs"
	ContextsRestored    = "recovery.contexts_restored"
	ReplayedCalls       = "recovery.replayed_calls"
	SuppressedSends     = "recovery.suppressed_sends"
	RecoveryPass1Micros = "recovery.pass1_micros"
	RecoveryPass2Micros = "recovery.pass2_micros"
	RecoveryMicros      = "recovery.total_micros"

	// RecoveryPass2Workers is the distribution of background replay
	// workers started, observed once per recovery run that had
	// contexts to replay.
	RecoveryPass2Workers = "recovery.pass2.workers"

	// --- per-context replay. These account how Pass 2 actually got
	// done, context by context, and what admission latency looked like.
	// The names say "lazy" because lazy admission introduced them; the
	// replay engine reports the first three in eager runs too (where a
	// touch is a resumed tail call reaching a same-process context).
	// Durations are universe-clock microseconds (model time under a
	// virtual bench clock), unlike the wall-time recovery.*_micros. ---

	// RecoveryLazyOnDemand counts contexts whose backlog replayed
	// because a call touched them first.
	RecoveryLazyOnDemand = "recovery.lazy.on_demand_replays"
	// RecoveryLazyBackground counts contexts replayed by the background
	// workers before any call arrived.
	RecoveryLazyBackground = "recovery.lazy.background_replays"
	// RecoveryLazyCtxReplayMicros is the per-context backlog replay
	// latency — what a first-touch call waits on top of its own work.
	RecoveryLazyCtxReplayMicros = "recovery.lazy.ctx_replay_micros"
	// RecoveryLazyTTFCMicros is time-to-first-call: recovery start to
	// the first call admitted past a ready gate — perceived downtime.
	// Observed in lazy mode only.
	RecoveryLazyTTFCMicros = "recovery.lazy.ttfc_micros"

	// --- adaptive logging disciplines (internal/core adaptive.go).
	// The controller observes each (component, method)'s interaction
	// pattern per epoch and promotes/demotes its effective discipline;
	// every transition is made durable as a discipline-change record
	// before it takes effect. Counters account transitions and the
	// forces the promoted disciplines elided (counted where the baseline
	// discipline would have forced); gauges are the current number of
	// methods under each promoted treatment. ---

	// AdaptivePromotions counts discipline promotions applied (durable
	// record forced, in-memory state flipped).
	AdaptivePromotions = "adaptive.promotions"
	// AdaptiveDemotions counts demotions, including read-only guard
	// violations.
	AdaptiveDemotions = "adaptive.demotions"
	// AdaptiveROViolations counts read-only guard trips: a promoted
	// method mutated state or made an outgoing call, and was demoted
	// with a forced state save before its reply externalized.
	AdaptiveROViolations = "adaptive.ro_violations"
	// AdaptiveEpochs counts controller epoch boundaries crossed.
	AdaptiveEpochs = "adaptive.epochs"
	// AdaptiveForceAtChange is the per-site force counter of the
	// discipline-change commit point (the record is forced before the
	// new discipline takes effect).
	AdaptiveForceAtChange = "adaptive.force.at_change"

	// Forces elided because the controller promoted the method past the
	// configured baseline (the adaptive analogue of force.elided_*).
	AdaptiveElideAlgo2    = "adaptive.elided.algo2"     // message-1 forces skipped at promoted servers
	AdaptiveElideReadOnly = "adaptive.elided.readonly"  // whole-discipline skips at RO-promoted methods
	AdaptiveElideMulti    = "adaptive.elided.multicall" // send forces skipped by promoted multi-call elision

	// Current discipline gauges: how many (component, method) pairs are
	// under each promoted treatment right now.
	AdaptiveDiscAlgo2    = "adaptive.disc.algo2"
	AdaptiveDiscReadOnly = "adaptive.disc.readonly"
	AdaptiveDiscMulti    = "adaptive.disc.multicall"

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

	// --- envelope codec (internal/msg). Bytes are message-envelope
	// bytes as framed for the transport and the log, counted at encode
	// (out) and decode (in) time; the pool counters expose the scratch
	// buffer hit rate of the zero-allocation hot path — a falling hit
	// rate means some caller leaks buffers instead of FreeBuf-ing. ---

	// CodecBytesOut totals envelope bytes produced by EncodeCall and
	// EncodeReply.
	CodecBytesOut = "codec.bytes_out"
	// CodecBytesIn totals envelope bytes consumed by DecodeCall and
	// DecodeReply.
	CodecBytesIn = "codec.bytes_in"
	// CodecPoolHits counts scratch-buffer requests served from the pool
	// with a warm (full-capacity) buffer.
	CodecPoolHits = "codec.pool_hits"
	// CodecPoolMisses counts scratch-buffer requests that had to grow a
	// fresh buffer.
	CodecPoolMisses = "codec.pool_misses"

	// --- causal tracing (internal/obs/trace). The stage histograms are
	// per-leg latency distributions of traced interactions in
	// universe-clock microseconds — under a scaled or virtual bench
	// clock they are model time, unlike the wallclock-allowlisted
	// serve/rpc histograms. ---

	// TraceSpans counts spans recorded into flight recorders.
	TraceSpans = "trace.spans"
	// TraceRingOverwrites counts spans that displaced an older span
	// from a full ring — a rising rate means the ring is undersized
	// for the retention you want at crash time.
	TraceRingOverwrites = "trace.ring_overwrites"

	TraceClientInterceptMicros  = "trace.stage.client_intercept_micros"
	TraceTransportMicros        = "trace.stage.transport_micros"
	TraceServerInterceptMicros  = "trace.stage.server_intercept_micros"
	TraceWALAppendMicros        = "trace.stage.wal_append_micros"
	TraceSyncWaitMicros         = "trace.stage.sync_wait_micros"
	TraceExecuteMicros          = "trace.stage.execute_micros"
	TraceReplyMicros            = "trace.stage.reply_micros"
	TraceClientResumeMicros     = "trace.stage.client_resume_micros"
	TraceRecoveryScanMicros     = "trace.stage.recovery_scan_micros"
	TraceReplayMicros           = "trace.stage.replay_micros"
	TraceDemandReplayMicros     = "trace.stage.demand_replay_micros"
	TraceDisciplineChangeMicros = "trace.stage.discipline_change_micros"
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
	TraceDisciplineChangeMicros,
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

	ShardAppends  *Counter
	ShardSpread   *Histogram
	ShardStreams  *Histogram
	ShardReshards *Counter
}

// WALView resolves the wal.* bundle from r.
func WALView(r *Registry) *WALMetrics {
	return &WALMetrics{
		Appends:        r.Counter(WALAppends),
		Forces:         r.Counter(WALForces),
		CleanForces:    r.Counter(WALCleanForces),
		PhysicalWrites: r.Counter(WALPhysicalWrites),
		BytesWritten:   r.Counter(WALBytesWritten),
		TrimmedBytes:   r.Counter(WALTrimmedBytes),
		ReadOps:        r.Counter(WALReadOps),
		ReadBytes:      r.Counter(WALReadBytes),
		ForceMicros:    r.Histogram(WALForceMicros),
		AppendBytes:    r.Histogram(WALAppendBytes),

		GroupBatchSize:  r.Histogram(WALGroupBatchSize),
		GroupWaitMicros: r.Histogram(WALGroupWaitMicros),
		GroupSyncsSaved: r.Counter(WALGroupSyncsSaved),

		ShardAppends:  r.Counter(WALShardAppends),
		ShardSpread:   r.Histogram(WALShardSpread),
		ShardStreams:  r.Histogram(WALShardStreams),
		ShardReshards: r.Counter(WALShardReshards),
	}
}

// CodecMetrics pre-resolves the envelope-codec metrics for the
// per-message hot path of internal/msg. Like the other views, every
// field of a nil-registry view is nil and the update methods tolerate
// it.
type CodecMetrics struct {
	BytesOut   *Counter
	BytesIn    *Counter
	PoolHits   *Counter
	PoolMisses *Counter
}

// CodecView resolves the codec.* bundle from r.
func CodecView(r *Registry) *CodecMetrics {
	return &CodecMetrics{
		BytesOut:   r.Counter(CodecBytesOut),
		BytesIn:    r.Counter(CodecBytesIn),
		PoolHits:   r.Counter(CodecPoolHits),
		PoolMisses: r.Counter(CodecPoolMisses),
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

	ClientInterceptMicros  *Histogram
	TransportMicros        *Histogram
	ServerInterceptMicros  *Histogram
	WALAppendMicros        *Histogram
	SyncWaitMicros         *Histogram
	ExecuteMicros          *Histogram
	ReplyMicros            *Histogram
	ClientResumeMicros     *Histogram
	RecoveryScanMicros     *Histogram
	ReplayMicros           *Histogram
	DemandReplayMicros     *Histogram
	DisciplineChangeMicros *Histogram
}

// TraceView resolves the trace.* bundle from r.
func TraceView(r *Registry) *TraceMetrics {
	return &TraceMetrics{
		Spans:          r.Counter(TraceSpans),
		RingOverwrites: r.Counter(TraceRingOverwrites),

		ClientInterceptMicros:  r.Histogram(TraceClientInterceptMicros),
		TransportMicros:        r.Histogram(TraceTransportMicros),
		ServerInterceptMicros:  r.Histogram(TraceServerInterceptMicros),
		WALAppendMicros:        r.Histogram(TraceWALAppendMicros),
		SyncWaitMicros:         r.Histogram(TraceSyncWaitMicros),
		ExecuteMicros:          r.Histogram(TraceExecuteMicros),
		ReplyMicros:            r.Histogram(TraceReplyMicros),
		ClientResumeMicros:     r.Histogram(TraceClientResumeMicros),
		RecoveryScanMicros:     r.Histogram(TraceRecoveryScanMicros),
		ReplayMicros:           r.Histogram(TraceReplayMicros),
		DemandReplayMicros:     r.Histogram(TraceDemandReplayMicros),
		DisciplineChangeMicros: r.Histogram(TraceDisciplineChangeMicros),
	}
}

// RuntimeMetrics pre-resolves the interception, checkpoint, recovery
// and rpc metrics for the core runtime's hot paths.
type RuntimeMetrics struct {
	RecCreation         *Counter
	RecIncoming         *Counter
	RecReplySent        *Counter
	RecReplyContent     *Counter
	RecOutgoing         *Counter
	RecOutgoingReply    *Counter
	RecCtxState         *Counter
	RecBeginCkpt        *Counter
	RecCkptCtxTable     *Counter
	RecCkptLastCall     *Counter
	RecEndCkpt          *Counter
	RecDisciplineChange *Counter

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

	Checkpoints *Counter
	StateSaves  *Counter
	Trims       *Counter

	RecoveryRuns         *Counter
	ContextsRestored     *Counter
	ReplayedCalls        *Counter
	SuppressedSends      *Counter
	RecoveryPass1Micros  *Histogram
	RecoveryPass2Micros  *Histogram
	RecoveryMicros       *Histogram
	RecoveryPass2Workers *Histogram

	RecoveryLazyOnDemand        *Counter
	RecoveryLazyBackground      *Counter
	RecoveryLazyCtxReplayMicros *Histogram
	RecoveryLazyTTFCMicros      *Histogram

	AdaptivePromotions    *Counter
	AdaptiveDemotions     *Counter
	AdaptiveROViolations  *Counter
	AdaptiveEpochs        *Counter
	AdaptiveForceAtChange *Counter
	AdaptiveElideAlgo2    *Counter
	AdaptiveElideReadOnly *Counter
	AdaptiveElideMulti    *Counter
	AdaptiveDiscAlgo2     *Gauge
	AdaptiveDiscReadOnly  *Gauge
	AdaptiveDiscMulti     *Gauge

	RPCCalls        *Counter
	RPCRetries      *Counter
	RPCCallMicros   *Histogram
	ServeExecs      *Counter
	ServeExecMicros *Histogram
}

// RuntimeView resolves the runtime bundle from r.
func RuntimeView(r *Registry) *RuntimeMetrics {
	return &RuntimeMetrics{
		RecCreation:         r.Counter(RecCreation),
		RecIncoming:         r.Counter(RecIncoming),
		RecReplySent:        r.Counter(RecReplySent),
		RecReplyContent:     r.Counter(RecReplyContent),
		RecOutgoing:         r.Counter(RecOutgoing),
		RecOutgoingReply:    r.Counter(RecOutgoingReply),
		RecCtxState:         r.Counter(RecCtxState),
		RecBeginCkpt:        r.Counter(RecBeginCkpt),
		RecCkptCtxTable:     r.Counter(RecCkptCtxTable),
		RecCkptLastCall:     r.Counter(RecCkptLastCall),
		RecEndCkpt:          r.Counter(RecEndCkpt),
		RecDisciplineChange: r.Counter(RecDisciplineChange),

		InterceptAlgo1:       r.Counter(InterceptAlgo1),
		InterceptAlgo2:       r.Counter(InterceptAlgo2),
		InterceptAlgo3:       r.Counter(InterceptAlgo3),
		InterceptFunctional:  r.Counter(InterceptFunctional),
		InterceptReadOnly:    r.Counter(InterceptReadOnly),
		InterceptSubordinate: r.Counter(InterceptSubordinate),

		ForceAtIncoming:      r.Counter(ForceAtIncoming),
		ForceAtReply:         r.Counter(ForceAtReply),
		ForceAtSend:          r.Counter(ForceAtSend),
		ForceAtOutgoingReply: r.Counter(ForceAtOutgoingReply),
		ElideFunctional:      r.Counter(ElideFunctional),
		ElideReadOnly:        r.Counter(ElideReadOnly),
		ElideMultiCall:       r.Counter(ElideMultiCall),

		Checkpoints: r.Counter(Checkpoints),
		StateSaves:  r.Counter(StateSaves),
		Trims:       r.Counter(Trims),

		RecoveryRuns:         r.Counter(RecoveryRuns),
		ContextsRestored:     r.Counter(ContextsRestored),
		ReplayedCalls:        r.Counter(ReplayedCalls),
		SuppressedSends:      r.Counter(SuppressedSends),
		RecoveryPass1Micros:  r.Histogram(RecoveryPass1Micros),
		RecoveryPass2Micros:  r.Histogram(RecoveryPass2Micros),
		RecoveryMicros:       r.Histogram(RecoveryMicros),
		RecoveryPass2Workers: r.Histogram(RecoveryPass2Workers),

		RecoveryLazyOnDemand:        r.Counter(RecoveryLazyOnDemand),
		RecoveryLazyBackground:      r.Counter(RecoveryLazyBackground),
		RecoveryLazyCtxReplayMicros: r.Histogram(RecoveryLazyCtxReplayMicros),
		RecoveryLazyTTFCMicros:      r.Histogram(RecoveryLazyTTFCMicros),

		AdaptivePromotions:    r.Counter(AdaptivePromotions),
		AdaptiveDemotions:     r.Counter(AdaptiveDemotions),
		AdaptiveROViolations:  r.Counter(AdaptiveROViolations),
		AdaptiveEpochs:        r.Counter(AdaptiveEpochs),
		AdaptiveForceAtChange: r.Counter(AdaptiveForceAtChange),
		AdaptiveElideAlgo2:    r.Counter(AdaptiveElideAlgo2),
		AdaptiveElideReadOnly: r.Counter(AdaptiveElideReadOnly),
		AdaptiveElideMulti:    r.Counter(AdaptiveElideMulti),
		AdaptiveDiscAlgo2:     r.Gauge(AdaptiveDiscAlgo2),
		AdaptiveDiscReadOnly:  r.Gauge(AdaptiveDiscReadOnly),
		AdaptiveDiscMulti:     r.Gauge(AdaptiveDiscMulti),

		RPCCalls:        r.Counter(RPCCalls),
		RPCRetries:      r.Counter(RPCRetries),
		RPCCallMicros:   r.Histogram(RPCCallMicros),
		ServeExecs:      r.Counter(ServeExecs),
		ServeExecMicros: r.Histogram(ServeExecMicros),
	}
}
