# Development entry points. `make ci` is what the GitHub workflow runs.

.PHONY: ci vet lint lockgraph lint-fix-fixtures build test fuzz race stress recovery-stress soak bench bench-smoke profile-call profile-restart loc

ci: vet lint build test loc fuzz race stress recovery-stress soak

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
# crash-durability property, the end-to-end crash-recovery run, the
# metric census, whose group-commit scenario races committers until one
# rides another's sync, and a roll under a leader's sync — the active
# file growing mid-sync, a roll sealing the file the leader is syncing
# (no failed sync, no leaked file) or rolling in its commit window.
stress:
	go test -race -count=2 -run 'GroupCommit|TestEveryMetricMoves|AcrossASync' ./internal/wal/ ./internal/core/

# Recovery stress under the race detector, repeated: the one
# equivalence table (crash variant — process death, power cut — × mode
# × clean crash, injected crashes, a crash in a force, a relay's
# resumed tail re-sending into a callee that already ran the call —
# on-demand replays racing the background worker), the two variants of
# the core test device and the wal model under both, the nested-demand
# hang regression,
# the walked-chains-against-brute-force property and the walk's
# fail-stop, the flat-as-the-log-grows counts, the TestLazy* suites
# (first touch, touch not queued behind the drain, a Handle on a pending
# context, a pending context's last calls through a trim, what one touch
# reads, crash mid-drain, RecoverContext), the wal cursor and positioned-read tests (the reader's
# edge-case table with its Hold rows; cursors racing an appender and
# TrimHead; a trim resumed after a failed remove), the fail-stop table
# (each device operation the log and its root issue, failed once, then
# the open that follows), the tail check that scans, appends and End race to run on
# a reopened log (and a torn segment fuzzed), the dump that reads a log
# once, the log's root — round trips and damage, a stable watermark with
# the tail check each side of it, the atomic file writer under it, and
# through a process: publications racing from many contexts, both crash
# states of the one write, a restart without it, a recreated directory,
# the checkpoint that forces and writes it itself — a power cut after a
# roll that keeps only synced bytes, the crash rows, each under both
# crash variants, whose replay reads outgoing-reply records (a
# multi-call fan-out crashed at the caller between sends, after its last
# reply, in its reply force and at a server after it executed; a
# read-only reply taken from the caller's log, crashed after the next
# incoming record or in the reply force; a
# subordinate restored with its parent from a state record, mid-call;
# a force that failed and crashed the server under a retrying caller;
# a call that took a checkpoint whose publication failed; a checkpoint
# that saved idle contexts' states before its publication failed; a
# context created while a checkpoint ran), the trim floor that no idle
# context or quiet caller holds, the log
# holding zero and nonzero trace fields
# — and the bookstore seller through the facade.
recovery-stress:
	go test -race -count=2 -run 'TestRecoveryEquivalence|TestRecoveryCallee|TestChain|RecordsScanned|LogReads|TestRestart|Lazy|ScanFrom|ReadAt|Reader|TailCheck|FuzzOpenTornSegment|DumpLogReads|OpenSet|TrimHeadEdgeCases|DeviceFailStop|TestRoot|SetDiscard|AtomicWriteFile|EitherRoot|RecreatedLogDir|CheckpointPublication|CheckpointPublishesItself|PowerCutAfterRoll|TestCrashRow|TestCrashDevVariants|TestWALModelProperty|TestFailedSyncStopsTheLog|TrimFloor|TestTracedUntracedRecovery' ./internal/core/ ./internal/wal/ ./internal/disk/
	go test -race -count=2 -run 'SellerRecoveryEquivalence' ./internal/bookstore/

# The log stays bounded with no call to make: two bookstores (at the
# optimized-logging level, and at the specialized level, whose stores,
# grabber and tax processes never force but for their checkpoints) and
# a three-stage pipeline, beside a persistent context no call reaches
# and a persistent caller that stops at 10 % of the run, run 200,000
# calls on 512-byte segments (on
# /dev/shm when the host has it), and the bytes of segment files on
# disk, the logs' segment count, the live heap bytes after two GCs and
# the goroutines at the end may not exceed 1.1x their values at 30 %;
# a crash of every process and a restart then recover the model state.
# A few seconds on two vCPUs; kept out of `go test ./...` by its build
# tag.
soak:
	go test -tags soak -run 'TestSoakLogStaysBounded$$' -count=1 -v .

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
# The total may not pass LOC_MAX. A change that needs more lines raises
# the number in its own diff, where review sees it; a change that
# deletes lines lowers it there too. CHANGES.md keeps the ledger.
LOC_MAX = 21570
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.git/*' | xargs wc -l | \
		awk -v max=$(LOC_MAX) '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
				printf "%7d  total (LOC_MAX %d)\n", t, max; \
				if (t > max) { print "loc: non-test Go is over LOC_MAX: shrink it, or raise LOC_MAX in this diff" > "/dev/stderr"; exit 1 } }'
