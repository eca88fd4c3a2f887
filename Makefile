# Development entry points. `make ci` is what the GitHub workflow runs.

.PHONY: ci vet lint lockgraph lint-fix-fixtures build test fuzz race stress recovery-stress shard-stress adaptive-stress bench bench-smoke profile-call profile-restart loc

ci: vet lint build test loc fuzz race stress recovery-stress shard-stress adaptive-stress

vet:
	go vet ./...

# The repository's own discipline analyzers (internal/lint): forced
# append sites, wall-clock reads, device I/O under held mutexes,
# exhaustive enum switches, metric-name hygiene, the lock-order graph,
# pooled-buffer lifetimes, goroutine/latch shutdown paths and dropped
# device-I/O errors. -deadallow also fails the run when an allowlist
# entry matches no current diagnostic. The `go list -export` front end
# is cached on a hash of go.mod/go.sum and the tree's sources, so a
# warm run skips the go tool. staticcheck and govulncheck run when
# installed (CI installs them; offline dev machines may not have them).
# The go list line keeps encoding/gob out of the module: msg's plans
# are the one value codec, and no package may depend on another, even
# transitively. ./benchmark is exempt — its calibration loop times gob
# as a fixed yardstick of host speed.
lint:
	go run ./cmd/phoenix-lint -deadallow ./...
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

race:
	go test -race ./internal/core/ ./internal/wal/

# Repeated group-commit concurrency stress under the race detector: the
# one force path with the commit window on and off, the shutdown rule
# (Close completes requests, Discard fails them), the
# crash-durability property, and the end-to-end crash-recovery run on a
# one-shard and a 4-shard log (per-shard sync leaders racing each
# other's appenders).
stress:
	go test -race -count=2 -run 'GroupCommit' ./internal/wal/ ./internal/core/

# Recovery stress under the race detector, repeated: the one
# equivalence table (mode × workers × shards × clean crash, injected
# crashes, a log resharded 1 → 4, adaptive promotion boundary — on-demand
# replays racing the background workers), the nested-demand hang
# regression, the walked-chains-against-brute-force property and the
# walk's fail-stop, the flat-as-the-log-grows counts, the first-touch /
# crash-mid-drain / RecoverContext suites, the wal cursor and
# positioned-read tests (the reader's edge-case table with its Hold
# rows; cursors racing an appender and TrimHead), the tail check that
# scans, appends and End race to run on a reopened log, the dump that
# reads a log once, and the bookstore seller through the facade.
recovery-stress:
	go test -race -count=2 -run 'TestRecoveryEquivalence|TestRecoveryCallee|TestChain|RecordsScanned|LogReads|TestRestart|Lazy|ScanFrom|ReadAt|Reader|TailCheck|DumpLogReads' ./internal/core/ ./internal/wal/
	go test -race -count=2 -run 'SellerRecoveryEquivalence' ./internal/bookstore/

# Sharded-log stress under the race detector: the wal.Set unit suite
# (open, reshard, and the shards.meta root: eras, marks and stable
# watermarks through round trips and damage, and the tail check each
# side of a watermark — a scan, an append or End first must agree on a
# torn segment's end), the atomic file writer under it, and the root
# through a process — publications racing from
# many contexts, both crash states of the one write, a reshard, a
# recreated directory, a restart that trims. Concurrent group commit
# against a 4-shard log is a row of `stress`; recovery over sharded and
# mixed-era logs is part of recovery-stress.
shard-stress:
	go test -race -count=2 -run 'OpenSet|ShardMeta|SetSync|SetDiscard|AtomicWriteFile|TailCheck|FuzzOpenTornSegment' ./internal/wal/ ./internal/disk/
	go test -race -count=2 -run 'CheckpointPublication|EitherRoot|KeepsRoot|RecreatedLogDir|TrimsFromLoadedMarks|CheckpointWritesWellKnownLSN' ./internal/core/

# Adaptive-discipline stress under the race detector: the controller's
# epoch machine and promotion/demotion paths racing live calls, the
# hysteresis and read-only-guard suites, plus the convergence bench
# cell on a compressed clock. (The crash-at-promotion-boundary cases
# are rows of the recovery equivalence table: recovery-stress.)
adaptive-stress:
	go test -race -count=2 -run 'Adaptive' ./internal/core/
	go run ./cmd/phoenix-bench -experiment adaptive -scale 0.05 -calls 40 -metrics=false

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
	go test -run 'TestAdaptiveConvergenceGate$$' -v ./internal/bench/

# The census a call-path change starts from: where one Table-4
# persistent→persistent optimized call spends its CPU and what it
# allocates, on a memory-backed file system (TMPDIR=/dev/shm: no device
# in the numbers), as `pprof -top`. Two runs of fixed length — a CPU
# profile of 1,000,000 calls, then every allocation of 100,000
# (-memprofilerate=1 records a stack per object, which slows the call
# ~30x and would fill a CPU profile taken alongside it; counts per call
# are exact at any length: divide alloc_objects by the calls). The
# profiler leaves out tiny objects that fit an open 16-byte block, so
# the -benchmem figure printed above the table is the total. Profiles
# and the test binary stay in PROFILE_DIR for `go tool pprof -list`.
PROFILE_DIR ?= /tmp/phoenix-profile-call
PROFILE_BENCH = TMPDIR=/dev/shm go test -run '^$$' -bench 'BenchmarkTable4_PersistentToPersistent_Optimized$$' -benchmem -o $(PROFILE_DIR)/call.test
profile-call:
	@mkdir -p $(PROFILE_DIR)
	$(PROFILE_BENCH) -benchtime 1000000x -cpuprofile $(PROFILE_DIR)/cpu.prof .
	go tool pprof -top -nodecount 40 $(PROFILE_DIR)/call.test $(PROFILE_DIR)/cpu.prof
	$(PROFILE_BENCH) -benchtime 100000x -memprofile $(PROFILE_DIR)/mem.prof -memprofilerate=1 .
	go tool pprof -sample_index=alloc_objects -top -nodecount 40 $(PROFILE_DIR)/call.test $(PROFILE_DIR)/mem.prof

# The census a restart change starts from, profile-call's sibling: the
# benchmark's restart-mem image (64 contexts, 6,000 calls, checkpoint at
# 3,000) built once on the memory-backed file system and restarted
# eagerly by one worker 300 times, as `pprof -top` (putting the pristine image back is
# outside the benchmark's timer but inside the profile, under copyTree),
# then one restart each way for the RecoveryStats line: device reads
# (by phase: Pass 1 — the log's tail check too, the open reads nothing —
# chain walks, replays), bytes read over log bytes, records scanned, calls replayed, and what
# replaying one context by itself reads, as a first touch does —
# counts, the same on every run.
RESTART_DIR ?= /tmp/phoenix-profile-restart
RESTART_BENCH = TMPDIR=/dev/shm go test -run '^$$' -o $(RESTART_DIR)/restart.test
profile-restart:
	@mkdir -p $(RESTART_DIR)
	$(RESTART_BENCH) -bench 'BenchmarkTable7_RestartImage$$/eager/workers=1$$' -benchmem -benchtime 300x -cpuprofile $(RESTART_DIR)/cpu.prof .
	go tool pprof -top -nodecount 40 $(RESTART_DIR)/restart.test $(RESTART_DIR)/cpu.prof
	$(RESTART_BENCH) -bench 'BenchmarkTable7_RestartImage$$/./workers=1$$' -benchtime 1x . | grep -E 'restart of a|^Benchmark'

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
# End runs — raised it by 22 to 24,867: Cursor.Next settles the end.)
LOC_MAX = 24867
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.git/*' | xargs wc -l | \
		awk -v max=$(LOC_MAX) '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
				printf "%7d  total (LOC_MAX %d)\n", t, max; \
				if (t > max) { print "loc: non-test Go is over LOC_MAX: shrink it, or raise LOC_MAX in this diff" > "/dev/stderr"; exit 1 } }'
