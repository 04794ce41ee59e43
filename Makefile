# Correctness gates for the BBB simulator; see docs/ARCHITECTURE.md §8.

GO ?= go

.PHONY: all build test vet race invariant inline-check fuzz-short mc-short experiments-short litmus-short pressure-short kv-short trace-smoke campaign-short regress check bench-json bench-profile loc

all: check

build:
	$(GO) build ./...

# Tier-1: the seed gate.
test:
	$(GO) test ./...

# Static analysis: go vet plus the project's bbbvet suite
# (locklint, detlint, statlint, cyclelint, persistlint).
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/bbbvet ./...

# Race detector across the full suite (the workload runners are the only
# multi-goroutine code; the seed baseline is race-clean).
race:
	$(GO) test -race ./...

# Step-wise runtime invariant harnesses (re-check the machine after every
# engine event) plus the race detector over the internal packages.
invariant:
	$(GO) test -race -tags invariant ./internal/...

# Inline guard: the memo hit of Memory.Peek64, every recovery checker's
# word read, must stay inlinable. Its cost sits at the compiler's budget
# (80), so an edit that grows it would silently put a call back on the
# crash-image validator's hottest path. The same holds for the stats
# handles' record methods, which run once per simulated event: a counter
# bump, and the histogram and gauge writes, whose disabled (untraced) path
# must stay a single inlined test.
inline-check:
	@$(GO) build -gcflags=-m ./internal/memory 2>&1 | grep -q 'can inline (\*Memory).Peek64$$' \
		|| { echo "inline-check: FAIL: (*Memory).Peek64 is no longer inlinable"; exit 1; }
	@out=$$($(GO) build -gcflags=-m ./internal/stats 2>&1); \
	for m in Lazy.Inc LazyHist.Observe LazyGauge.Sample; do \
		typ=$${m%.*}; fn=$${m#*.}; \
		echo "$$out" | grep -q "can inline (\*$$typ).$$fn$$" \
			|| { echo "inline-check: FAIL: (*$$typ).$$fn is no longer inlinable"; exit 1; }; \
	done
	@echo "inline-check: ok"

# Perf trajectory: run the key benchmarks (simulator throughput and
# allocation pressure, Figure 7 wall-clock, raw event-kernel rate at a
# fixed depth and in Figure 7's delay mix, coherence load hit / store
# upgrade / L2 miss, program handoff, a memory word read, crash
# image enumeration and validation, one point's validation with the
# checks its verdict memo leaves, the crash walk alone, and whole
# model-checking campaigns) and
# record them as the next BENCH_<n>.json, also appending the recording to
# the .ledger run ledger for provenance (who ran it, where, when).
# Non-gating; CI uploads the files as artifacts and `make regress` judges
# the trajectory.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkSimulatorThroughput|BenchmarkFig7aExecutionTime|BenchmarkEngineKernel|BenchmarkCoherence|BenchmarkHandoff|BenchmarkCrashMCEnumerate|BenchmarkCrashMCCampaign|BenchmarkCrashWalk|BenchmarkValidateImage|BenchmarkCheckRecord|BenchmarkPeek64|BenchmarkAxiomaticEnumerate|BenchmarkTraceOverhead|BenchmarkPressureLint|BenchmarkKVService|BenchmarkPDSQueue' \
		-benchmem . ./internal/engine ./internal/coherence ./internal/cpu ./internal/memory ./internal/crashmc ./internal/axiomatic ./internal/trace ./internal/vet/pressurelint ./internal/kvservice ./internal/pds \
		| $(GO) run ./cmd/benchjson -ledger .ledger -name bench-json > BENCH_$$(ls BENCH_*.json 2>/dev/null | wc -l).json
	@ls BENCH_*.json | tail -1

# Noise-aware benchmark regression gate: judge the newest BENCH_<n>.json
# against the older trail with median ± K·MADσ bands (internal/obs). Only
# metrics with a stable history can fail the gate; noisy ones are reported
# as suspects. The comparison is also appended to the .ledger run ledger.
regress:
	$(GO) run ./cmd/bbbregress -dir . -ledger .ledger

# Hot-path profiling: run the simulator throughput benchmark under the CPU
# and allocation profilers (bbbsim's -cpuprofile/-memprofile flags do the
# same for arbitrary workload/scheme combinations). Inspect with
# `go tool pprof bbb.test cpu.out`.
bench-profile:
	$(GO) test -run '^$$' -bench 'BenchmarkSimulatorThroughput' -benchmem \
		-cpuprofile cpu.out -memprofile mem.out .
	@echo "profiles: cpu.out mem.out (binary: bbb.test)"

# Observability smoke: drive the trace pipeline end to end — record the
# same run twice with bbbsim -trace-out (streams must be byte-identical),
# filter by kind with cmd/bbbtrace (exercising the JSONL re-parse), replay
# durability provenance offline, and export to Perfetto JSON; then record
# the same crash twice with -crash (byte-identical again) and require the
# battery's crash-drain events in its summary. See docs/ARCHITECTURE.md §11.
trace-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	rec="$(GO) run ./cmd/bbbsim -workload hashmap -scheme bbb -ops 100 -threads 4"; \
	$$rec -trace-out $$tmp/a.jsonl >/dev/null; \
	$$rec -trace-out $$tmp/b.jsonl >/dev/null; \
	cmp -s $$tmp/a.jsonl $$tmp/b.jsonl || { echo "trace-smoke: FAIL: same seed, different streams"; exit 1; }; \
	$(GO) run ./cmd/bbbtrace filter -i $$tmp/a.jsonl -kind pb-alloc -o $$tmp/alloc.jsonl 2>/dev/null; \
	test -s $$tmp/alloc.jsonl || { echo "trace-smoke: FAIL: no pb-alloc events under bbb"; exit 1; }; \
	$(GO) run ./cmd/bbbtrace summarize -i $$tmp/a.jsonl -scheme bbb | grep -q 'unresolved stores   0' \
		|| { echo "trace-smoke: FAIL: bbb left stores unresolved"; exit 1; }; \
	$(GO) run ./cmd/bbbtrace export -i $$tmp/a.jsonl -o $$tmp/a.json >/dev/null; \
	grep -q '"traceEvents"' $$tmp/a.json || { echo "trace-smoke: FAIL: export missing traceEvents"; exit 1; }; \
	$$rec -crash 20000 -trace-out $$tmp/c.jsonl >/dev/null; \
	$$rec -crash 20000 -trace-out $$tmp/d.jsonl >/dev/null; \
	cmp -s $$tmp/c.jsonl $$tmp/d.jsonl || { echo "trace-smoke: FAIL: same crash, different streams"; exit 1; }; \
	$(GO) run ./cmd/bbbtrace summarize -i $$tmp/c.jsonl -scheme bbb | grep -q '^  crash-drain ' \
		|| { echo "trace-smoke: FAIL: crash stream has no crash-drain events"; exit 1; }; \
	echo "trace-smoke: ok"

# A bounded pass over every fuzz target.
fuzz-short:
	$(GO) test -run=^$$ -fuzz=FuzzCacheOps -fuzztime=10s ./internal/cache
	$(GO) test -run=^$$ -fuzz=FuzzCrashPoints -fuzztime=10s ./internal/workload
	$(GO) test -run=^$$ -fuzz=FuzzParseWitness -fuzztime=10s ./internal/crashmc
	$(GO) test -run=^$$ -fuzz=FuzzEnumerate -fuzztime=10s ./internal/crashmc
	$(GO) test -run=^$$ -fuzz=FuzzMemo -fuzztime=10s ./internal/crashmc
	$(GO) test -run=^$$ -fuzz=FuzzParseJSONL -fuzztime=10s ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzConform -fuzztime=10s ./internal/litmus/conform
	$(GO) test -run=^$$ -fuzz=FuzzReadRun -fuzztime=10s ./internal/obs
	$(GO) test -run=^$$ -fuzz=FuzzParseBench -fuzztime=10s ./cmd/internal/cli

# Crash-image model checking at short bounds: the bbbmc acceptance matrix
# (battery schemes single-image, PMEM Figures 2/3 over the whole reachable
# space) exits non-zero on any expectation failure. It runs with one
# checker and again with three (more checkers than most hosts have cores),
# and the two reports must be byte-identical. Then the Figures 2/3 claims
# on the flush-on-fail image alone (one image per crash point): the
# linked-list example strands Figure 2 under PMEM at all 15 points and
# recovers in the other three rows, and the EXPERIMENTS table's
# barrier-free PMEM campaign violates at all 20 of its points.
mc-short:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/bbbmc -points 4 -parallel 1 > $$tmp/serial.txt || { cat $$tmp/serial.txt; exit 1; }; \
	cat $$tmp/serial.txt; \
	$(GO) run ./cmd/bbbmc -points 4 -parallel 3 > $$tmp/pooled.txt || { cat $$tmp/pooled.txt; exit 1; }; \
	diff $$tmp/serial.txt $$tmp/pooled.txt \
		|| { echo "mc-short: FAIL: the matrix differs between -parallel 1 and -parallel 3"; exit 1; }; \
	$(GO) run ./examples/linkedlist > $$tmp/example.txt; \
	cat $$tmp/example.txt; \
	grep -q 'UNRECOVERABLE at 15/15' $$tmp/example.txt \
		|| { echo "mc-short: FAIL: Figure 2 not unrecoverable at every crash point"; exit 1; }; \
	test "$$(grep -c 'recovered at every crash point' $$tmp/example.txt)" = 3 \
		|| { echo "mc-short: FAIL: a barriered or battery-backed row did not recover"; exit 1; }; \
	rc=0; $(GO) run ./cmd/bbbmc -workload linkedlist -scheme pmem -no-barriers -threads 4 -ops 400 \
		-points 20 -first 5000 -step 10000 -maximages 1 > $$tmp/row.txt 2>/dev/null || rc=$$?; \
	cat $$tmp/row.txt; \
	test $$rc = 1 && grep -q 'violating:    20' $$tmp/row.txt \
		|| { echo "mc-short: FAIL: Figure 2 flush-on-fail campaign not violating at all 20 points"; exit 1; }; \
	echo "mc-short: ok"

# Experiment-grid smoke: the CLIs' two paths into bbb.RunGrid — bbbench,
# whose figure and table drivers each run a grid, and a bbbsim workload ×
# scheme matrix — run at -parallel 1 and at -parallel 3, and each pair of
# outputs must be byte-identical. bbbench's report is compared rather than
# its -json export: at this scale the eADR runs write no NVMM line, so
# Figure 7's write ratios are +Inf, which JSON cannot encode.
experiments-short:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/ ./cmd/bbbench ./cmd/bbbsim; \
	for p in 1 3; do \
		$$tmp/bbbench -threads 2 -ops 60 -parallel $$p > $$tmp/bench$$p.txt; \
		$$tmp/bbbsim -workload hashmap,rtree -scheme bbb,eadr -ops 60 -parallel $$p > $$tmp/sim$$p.txt; \
	done; \
	cmp $$tmp/bench1.txt $$tmp/bench3.txt \
		|| { echo "experiments-short: FAIL: the bbbench report differs between -parallel 1 and -parallel 3"; exit 1; }; \
	diff $$tmp/sim1.txt $$tmp/sim3.txt \
		|| { echo "experiments-short: FAIL: the bbbsim matrix differs between -parallel 1 and -parallel 3"; exit 1; }; \
	echo "experiments-short: ok"

# Pressure-bound soundness gate: replay every Table IV workload × scheme
# pair and check the observed buffer occupancy, runtime invariants and
# crashmc pending-line sets against pressurelint's static battery-bound
# certificates; also pins the checked-in golden (regenerate with
# `go test ./internal/vet/pressurelint/conform -run Golden -update`).
# Exits non-zero with a minimized witness on any exceedance.
pressure-short:
	$(GO) test -count=1 ./internal/vet/pressurelint/conform

# Service-tier gate: the pds structures and the KV service must complete,
# recover and replay-check under the scheme matrix (their package tests),
# the tier must be persistlint- and detlint-clean with zero persistlint
# suppressions (statlint needs the whole program and runs under `vet`),
# and bbbkv must produce the scheme latency table end to end.
kv-short:
	$(GO) test -count=1 ./internal/pds ./internal/kvservice
	$(GO) run ./cmd/bbbvet -only persistlint ./internal/pds ./internal/kvservice
	$(GO) run ./cmd/bbbvet -only detlint ./internal/pds ./internal/kvservice
	@if grep -rn 'bbbvet:ignore persistlint' internal/pds internal/kvservice; then \
		echo "kv-short: FAIL: persistlint suppression in the pds/kvservice tier"; exit 1; fi
	$(GO) run ./cmd/bbbkv -scheme pmem,bbb -threads 2 -ops 120 | grep -q '^kv ' \
		|| { echo "kv-short: FAIL: bbbkv produced no kv row"; exit 1; }
	@echo "kv-short: ok"

# Campaign resumability gate: run a tiny frontier campaign to completion,
# then the same campaign killed at half its points and resumed at a
# different worker count, and require the resumed report — frontier table,
# summary digest and all — to be byte-identical to the uninterrupted one
# (docs/ARCHITECTURE.md §15). The kill goes through -max-points, the same
# truncation an actual SIGKILL leaves behind: complete points on disk, the
# rest missing.
campaign-short:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	args="-campaign frontier -workload hashmap -ops 80 -threads 2 \
		-grid-entries 8,32 -grid-thresholds 0.5,0.75 -budgets-mm3 1,20"; \
	$(GO) run ./cmd/bbbsim $$args -ledger $$tmp/full -parallel 2 > $$tmp/full.txt 2>/dev/null; \
	$(GO) run ./cmd/bbbsim $$args -ledger $$tmp/resumed -parallel 3 -max-points 2 > /dev/null 2>&1; \
	$(GO) run ./cmd/bbbsim $$args -ledger $$tmp/resumed -parallel 1 > $$tmp/resumed.txt 2>/dev/null; \
	cmp $$tmp/full.txt $$tmp/resumed.txt \
		|| { echo "campaign-short: FAIL: resumed campaign differs from uninterrupted run"; exit 1; }; \
	grep -q 'summary sha256' $$tmp/resumed.txt \
		|| { echo "campaign-short: FAIL: no summary digest in the report"; exit 1; }; \
	echo "campaign-short: ok"

# Px86-TSO conformance at short bounds: for every litmus test × scheme,
# the crashmc-reachable outcome set must sit inside the axiomatic allowed
# set, with the battery schemes collapsed to a single image per crash
# point. Exits non-zero with a minimized witness on any divergence.
litmus-short:
	$(GO) run ./cmd/bbblitmus conform -points 6

# Non-test Go source lines, comments and blanks included, bench/ included
# and testdata/ excluded: the size figure CHANGES.md and ROADMAP.md cite.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l

# Tier-1.5: everything above.
check: build test vet inline-check race invariant mc-short experiments-short litmus-short pressure-short kv-short trace-smoke campaign-short regress
