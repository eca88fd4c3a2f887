# Development entry points. `make ci` is what the GitHub workflow runs.

.PHONY: ci vet lint lockgraph lint-fix-fixtures build test fuzz race stress recovery-stress bench bench-smoke profile-call profile-restart loc

ci: vet lint build test loc fuzz race stress recovery-stress

vet:
	go vet ./...

# The repository's seven discipline analyzers (internal/lint): forced
# append sites, wall-clock reads, exhaustive enum switches, the
# lock-order graph (its device rung: no device I/O under the log,
# process or engine mutex), pooled-buffer lifetimes, goroutine/latch
# shutdown paths and dropped device-I/O errors. (Metric names need no analyzer: only internal/obs's views
# resolve one, and its tests hold them to names.go.) One pass over the tree: the run fails on a
# violation and on an allowlist entry that matched no diagnostic.
# staticcheck and govulncheck run when installed (CI installs them;
# offline dev machines may not have them).
# The go list line keeps encoding/gob out of the module: msg's plans
# are the one value codec, and no package may depend on another, even
# transitively. ./benchmark is exempt — its calibration loop times gob
# as a fixed yardstick of host speed.
lint:
	go run ./cmd/phoenix-lint ./...
	@! go list -deps $$(go list ./... | grep -v '/benchmark$$') | grep -qx encoding/gob || \
		{ echo "lint: a package other than ./benchmark depends on encoding/gob"; exit 1; }
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "lint: govulncheck not installed, skipping"; fi

# Emit the lock-acquisition graph lockorder observed as Graphviz DOT
# (the DESIGN.md §14 figure).
lockgraph:
	go run ./cmd/phoenix-lint -lockgraph ./...

# Print every diagnostic the analyzers produce for the testdata
# fixtures — use this to refresh `// want` comments after changing an
# analyzer's message format.
lint-fix-fixtures:
	PHOENIX_LINT_PRINT=1 go test ./internal/lint/ -run 'Fixture' -v

build:
	go build ./...

test:
	go test ./...

# Ten seconds of every fuzz target in the module — the envelope, value
# stream, component state, record and WAL frame decoders (total, no
# oversized allocation, decode → encode → decode stable) — on top of
# their checked-in seeds, which `go test` already runs. (go test takes
# one -fuzz target of one package at a time.)
fuzz:
	@set -e; for pkg in $$(go list ./...); do \
		for f in $$(go test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$f"; \
			go test -run '^$$' -fuzz "^$$f\$$" -fuzztime 10s $$pkg; \
		done; \
	done

# The race detector also turns on checkptr, so msg's one unsafe.String
# (bufString, the decoded-envelope buffer) is checked under the fuzz
# seeds and the codec tests, and the trace ring's (a slot's names,
# rebuilt from pointer and length) under writers racing a reader.
race:
	go test -race ./internal/core/ ./internal/wal/ ./internal/msg/ ./internal/obs/trace/

# Repeated group-commit concurrency stress under the race detector: the
# one force path with the commit window on and off, the shutdown rule
# (Close completes requests, Discard fails them), the
# crash-durability property, the end-to-end crash-recovery run, and the
# metric census, whose group-commit scenario races committers until one
# rides another's sync.
stress:
	go test -race -count=2 -run 'GroupCommit|TestEveryMetricMoves' ./internal/wal/ ./internal/core/

# Recovery stress under the race detector, repeated: the one
# equivalence table (mode × clean crash, injected crashes, a relay's
# resumed tail re-sending into a callee that already ran the call —
# on-demand replays racing the background worker), the nested-demand
# hang regression,
# the walked-chains-against-brute-force property and the walk's
# fail-stop, the flat-as-the-log-grows counts, the TestLazy* suites
# (first touch, touch not queued behind the drain, a Handle on a pending
# context, a pending context's last calls through a trim, what one touch
# reads, crash mid-drain, RecoverContext), the wal cursor and positioned-read tests (the reader's
# edge-case table with its Hold rows; cursors racing an appender and
# TrimHead), the tail check that scans, appends and End race to run on
# a reopened log (and a torn segment fuzzed), the dump that reads a log
# once, the log's root — round trips and damage, a stable watermark with
# the tail check each side of it, the atomic file writer under it, and
# through a process: publications racing from many contexts, both crash
# states of the one write, a restart without it, a recreated directory,
# a restart that trims from the loaded mark, the checkpoint that writes
# it — the crash rows whose replay reads outgoing-reply records (a
# multi-call fan-out crashed at the caller between sends, after its
# last reply and at a server after it executed; a read-only reply taken
# from the caller's log; a subordinate restored with its parent from a
# state record, mid-call), the log holding zero and nonzero trace fields
# — and the bookstore seller through the facade.
recovery-stress:
	go test -race -count=2 -run 'TestRecoveryEquivalence|TestRecoveryCallee|TestChain|RecordsScanned|LogReads|TestRestart|Lazy|ScanFrom|ReadAt|Reader|TailCheck|FuzzOpenTornSegment|DumpLogReads|OpenSet|TestRoot|SetDiscard|AtomicWriteFile|EitherRoot|RecreatedLogDir|TrimsFromLoadedMarks|CheckpointPublication|CheckpointWritesWellKnownLSN|TestCrashRow|TestTracedUntracedRecovery' ./internal/core/ ./internal/wal/ ./internal/disk/
	go test -race -count=2 -run 'SellerRecoveryEquivalence' ./internal/bookstore/

bench:
	go run ./cmd/phoenix-bench -scale 0.05 -calls 30

# Quick allocation-focused microbenchmarks of the message/WAL hot path
# (encode/decode envelopes, wal append, cursor scans, positioned reads),
# one iteration batch each, plus the AllocsPerRun regression gates (call
# path, record append, envelope decode, encoded dispatch, the buffer
# pool's round trip, checkpoint capture/restore, log reads: two
# allocations per scan, none per positioned read) and the tracing
# CPU-overhead gate (flight recorder must stay under 5% per call on
# the group-commit workload; a timing verdict, so it is compiled only
# under the perfgate build tag and kept out of `go test ./...`). This
# is the perf-regression smoke CI runs.
bench-smoke:
	go test -run '^$$' -bench 'Encode|Decode|WALAppend|Cursor|Scan|Positioned' -benchmem -benchtime 100x ./internal/msg/ ./internal/wal/
	go test -run 'TestAllocs|TestPoolRoundTripAllocs' -v . ./internal/core/ ./internal/wal/ ./internal/msg/ ./internal/rpc/
	go test -tags perfgate -run 'TestTraceOverhead$$' -v ./internal/bench/

# The census a call-path change starts from: where one Table-4
# persistent→persistent optimized call spends its CPU and what it
# allocates, on a memory-backed file system (TMPDIR=/dev/shm: no device
# in the numbers), as `pprof -top`. Two runs of fixed length — a CPU
# profile of 1,000,000 calls, then every allocation of 100,000
# (-memprofilerate=1 records a stack per object, which slows the call
# ~30x and would fill a CPU profile taken alongside it). The profile
# under-counts: Go (1.24 included) never samples an allocation that fits
# an open 16-byte tiny block, even at -memprofilerate=1, so
# alloc_objects / calls reads ≈ 15.5 per call where -benchmem reads 18 —
# the missing ones are mostly boxed ints. The last line prints both;
# -benchmem's count is the total, the table only says where the sampled
# ones come from. Profiles and the test binary stay in PROFILE_DIR for
# `go tool pprof -list`.
PROFILE_DIR ?= /tmp/phoenix-profile-call
PROFILE_CALLS = 100000
PROFILE_BENCH = TMPDIR=/dev/shm go test -run '^$$' -bench 'BenchmarkTable4_PersistentToPersistent_Optimized$$' -benchmem -o $(PROFILE_DIR)/call.test
profile-call:
	@mkdir -p $(PROFILE_DIR)
	$(PROFILE_BENCH) -benchtime 1000000x -cpuprofile $(PROFILE_DIR)/cpu.prof .
	go tool pprof -top -nodecount 40 $(PROFILE_DIR)/call.test $(PROFILE_DIR)/cpu.prof
	$(PROFILE_BENCH) -benchtime $(PROFILE_CALLS)x -memprofile $(PROFILE_DIR)/mem.prof -memprofilerate=1 . > $(PROFILE_DIR)/mem.bench; \
		s=$$?; cat $(PROFILE_DIR)/mem.bench; exit $$s
	go tool pprof -sample_index=alloc_objects -top -nodecount 40 $(PROFILE_DIR)/call.test $(PROFILE_DIR)/mem.prof > $(PROFILE_DIR)/mem.top; \
		s=$$?; cat $(PROFILE_DIR)/mem.top; exit $$s
	@awk -v calls=$(PROFILE_CALLS) '/allocs\/op/ { for (i = 2; i <= NF; i++) if ($$i == "allocs/op") bench = $$(i-1) } \
		/ total$$/ { prof = $$(NF-1) / calls } \
		END { printf "allocs per call: %s by -benchmem (all), %.2f sampled by the profile (no tiny-block allocation)\n", bench, prof; exit bench == "" || prof == 0 }' \
		$(PROFILE_DIR)/mem.bench $(PROFILE_DIR)/mem.top

# The census a restart change starts from, profile-call's sibling: the
# benchmark's restart-mem image (64 contexts, 6,000 calls, checkpoint at
# 3,000) built once on the memory-backed file system and restarted
# eagerly 300 times, as `pprof -top` (putting the pristine image back is
# outside the benchmark's timer but inside the profile, under copyTree),
# then one restart each way for the RecoveryStats line: device reads
# (by phase: Pass 1 — the log's tail check too, the open reads nothing —
# and chain walks; a replay reads nothing), bytes read over log bytes,
# records scanned, calls replayed, the restarts' allocations per
# replayed call (4.5; 5.5 with a record's strings and Args copied apart,
# 8.7 when every replay encoded its results), and
# what bringing one context back by itself reads (its restart record
# and its walk), as a first touch does — counts, the same on every run.
RESTART_DIR ?= /tmp/phoenix-profile-restart
RESTART_BENCH = TMPDIR=/dev/shm go test -run '^$$' -o $(RESTART_DIR)/restart.test
profile-restart:
	@mkdir -p $(RESTART_DIR)
	$(RESTART_BENCH) -bench 'BenchmarkTable7_RestartImage$$/eager$$' -benchmem -benchtime 300x -cpuprofile $(RESTART_DIR)/cpu.prof .
	go tool pprof -top -nodecount 40 $(RESTART_DIR)/restart.test $(RESTART_DIR)/cpu.prof
	$(RESTART_BENCH) -bench 'BenchmarkTable7_RestartImage$$' -benchtime 1x . | grep -E 'restart of a|^Benchmark'

# Non-test lines of Go per package (ROADMAP aim 2: net non-test LoC is
# a tracked number). Lint fixtures under testdata/ are not product code.
# The total may not pass LOC_MAX: a change that needs more lines raises
# the number here, in its own diff, where review sees it. (PR 21 raised
# it from 24,797 to 24,973: the frame with its back-link, the reader that
# walks backwards, the stable watermark and its corruption rule came to
# more than the head pass they replaced; PR 22 took the well-known file
# and the second atomic writer out — CHANGES.md has the ledger, ROADMAP
# items 4-6 where the rest comes back; PR 26 lowered it to 24,845 with
# msg's second value codec. Moving the tail check from the open into the
# first pass over the tail — recovery's scan, or one an append, force or
# End runs — raised it by 22 to 24,867: Cursor.Next settles the end.
# phoenix-lint running one way — no go vet mode, no on-disk go list
# cache, the allowlist applied by the runner in one pass — lowered it
# to 24,368. One replay worker — no worker pool, slot semaphore,
# hotness order or Recovery.Parallelism, and no semaphore support in
# the lock walker — lowered it to 24,256. One way back — Pass 1 registers
# shells, restoreContext and RecoverContext's own restore → walk →
# replay → tail fold into bringBack, and the engine's pending entries
# and owned set go — lowered it to 24,249. Splitting rpc's one call
# into bind, call and encode — so the server binds before it logs and
# a replay encodes only the results it keeps — raised it by 37 to
# 24,286, net of Dispatcher.Call, MethodNames and Method.ResultTypes,
# which nothing outside tests used, deleted. The metric census —
# the metricnames analyzer, the codec.* and wal.shard.* metrics no
# process registry or reader saw, DumpLog's copy of the record-kind
# switch and Registry.Names deleted; only obs's views resolve a name —
# lowered it by 318 to 23,968. One copy per message raised it by 103 to
# 24,071: msg's one buffer per decoded message with its one unsafe
# helper, AppendAnySlice and DecodeReplyInto (+41, net of ownStrings),
# the caller's reply and its result-count check in core (+9), results
# encoded in pooled scratch in rpc (+6), and poollife following a pooled
# buffer through Append… helpers and the struct value that carries it,
# so the pooled argument list is checked (+47); no older path was left
# to delete. Declared disciplines only — the adaptive controller, its
# record kind, Config.Adaptive, its bench experiment, 13 metrics and
# the gauge kind deleted — lowered it by 1,376 to 22,695. One log stream
# per process — sharding, stream-tagged LSNs, reshard eras, per-stream
# marks and Config.WAL.Shards deleted; the root holds one mark and one
# watermark — lowered it by 646 to 22,049. One layout per record and per
# message — the untraced envelopes and record header, the payload's kind
# byte, coldKinds, traceable, appendRec's type and key and the fields
# records wrote twice deleted; every record struct names its own kind,
# owner and trace — lowered it by 35 to 22,014, net of the reply-ID
# check in Universe.send and devirtualize's qualified-name lookup.
# locksync folded into lockorder's device rung, the runtime holding its
# log as a *wal.Set (wal.Writer down to the benchmark's two methods, and
# the qualified-name lookup gone with it) and crash dumps written as the
# debug endpoint's JSON (PHXFTR1 deleted) lowered it by 238 to 21,776.
# One surface per fact — the lifecycle-event callback (Config.OnEvent,
# core/trace.go, nine emit sites and the facade's Event* names),
# Config.AutoTrimLog, and wal.Set folded into wal.Log with wal.Open and
# openLog — lowered it by 212 to 21,564, net of the crash-discard
# counter. Records that carry only what replay reads — no message
# record embeds a wire body; msg.Fields the one field reader of the
# envelope and record decoders, msg.AppendCallID the one call-ID
# layout — lowered it by 1 to 21,563. A call's messages off the heap —
# msg.DecodeCallInto and EncodeReplyView beside the DecodeCall and
# EncodeReply the benchmark pins, BoundCall.AppendResults under
# EncodeResults, serveCall filling its caller's Reply, and a trace
# slot's names kept as pointer and length in a slot its writer claims —
# raised it by 39 to 21,602, net of putReplayed folded into put.)
LOC_MAX = 21602
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.git/*' | xargs wc -l | \
		awk -v max=$(LOC_MAX) '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
				printf "%7d  total (LOC_MAX %d)\n", t, max; \
				if (t > max) { print "loc: non-test Go is over LOC_MAX: shrink it, or raise LOC_MAX in this diff" > "/dev/stderr"; exit 1 } }'
