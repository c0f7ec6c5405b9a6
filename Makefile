GO ?= go

.PHONY: all build test race vet lint lint-tools bench-smoke bench-json bench-check chaos-smoke cover ci

all: build test vet lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check every internal package. The concurrency-bearing ones (the
# parallel experiment runner, the simulation engine it fans out, the
# pipelined TCP client/server, the cluster harness, the fault injector,
# the metrics registry) are where races live, but a blanket ./internal/...
# means a new package can never silently ship outside the race gate.
race:
	$(GO) test -race ./internal/...

vet:
	$(GO) vet ./...

# Pinned external lint tool versions. `make lint-tools` installs
# exactly these, so CI and developer machines run the same checks;
# bump the pins deliberately, in their own commit.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# Repo-specific invariants (determinism, obs nil-sink discipline, no
# blocking I/O under locks, pooled-buffer ownership, atomic/plain
# mixing, lock ordering, goroutine shutdown paths) enforced by the
# custom multichecker, plus staticcheck and govulncheck when they are
# installed (at the pinned versions above, via `make lint-tools`). The
# multichecker is the hard gate; the external tools are best-effort so
# the target works on a bare toolchain. `ibridge-vet -json` emits the
# same findings machine-readably for CI annotation. First, every Go
# file in the tree (tracked, or new and not ignored) must be gofmt-clean.
lint:
	@unformatted=$$(gofmt -l $$(git ls-files --cached --others --exclude-standard '*.go')); \
	if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) run ./cmd/ibridge-vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; run 'make lint-tools' to install $(STATICCHECK_VERSION); skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; run 'make lint-tools' to install $(GOVULNCHECK_VERSION); skipping"; \
	fi

# Quick engine hot-path numbers (events/sec, allocs/op).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine' -benchmem ./internal/sim/

# Benchmark trajectory artifact: run the loopback wire benchmarks plus
# the logstore append/replay pair, time a full (smoke-scale) paper
# evaluation, and snapshot everything into BENCH_$(PR).json for
# committing. Each perf-focused PR bumps PR= and commits its own
# snapshot; bench-check then gates the trajectory.
PR ?= 10
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkPfsnet' -benchmem -benchtime 2s ./internal/pfsnet/ | tee bench-raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkLogStore' -benchmem -benchtime 2s ./internal/logstore/ | tee -a bench-raw.txt
	$(GO) run ./cmd/ibridge-benchdiff -emit -pr $(PR) \
		-wallcmd '$(GO) run ./cmd/ibridge-bench -exp all -scale smoke' \
		< bench-raw.txt > BENCH_$(PR).json
	@rm -f bench-raw.txt
	@echo "wrote BENCH_$(PR).json"

# Regression gate over the committed snapshots: the newest BENCH_*.json
# must stay within 5% of its predecessor on allocs/op (exactly
# reproducible anywhere) and within the 40% noise threshold on the
# timing-bound metrics (ns/op, MB/s, B/op, wall clock — shared CI hosts
# swing these ±30% with zero code change, so the timing gate catches
# catastrophes while the alloc gate stays tight). A no-op until two
# snapshots are committed.
bench-check:
	$(GO) run ./cmd/ibridge-benchdiff -compare $(wildcard BENCH_*.json)

# Chaos gate: the live TCP cluster under a canned fault plan (one server
# crash+restart plus 1% connection resets) must complete with every byte
# verified, and two runs of the same plan must print an identical chaos
# summary — injected-fault and retry/breaker counts reproducible from
# the seed. The first run also records per-process trace spans (span
# counts are timing-dependent, so they print before the summary and stay
# out of the reproducibility diff); the merged Chrome trace lands in
# chaos-trace.json for chrome://tracing and is uploaded as a CI artifact.
# The same plan then runs against log-backed (crash-consistent) servers,
# and the kill-at-every-Kth-op recovery loop (cmd/logstore-chaos) crashes
# a logstore mid-append on every Kth write, reopens, replays, and
# byte-verifies — its RECOVERY SUMMARY stays in recovery-summary.txt for
# the CI artifact upload and must also be run-to-run identical.
CHAOS_PLAN = seed=42; reset=1%; crash=srv1@60+60
# Hedge gate: the straggler walkthrough (every primary conn op delayed,
# hedge conns fast) must verify every byte and print an identical HEDGE
# SUMMARY across two runs — armed/fired/won/cancelled counts
# reproducible from the plan seed.
HEDGE_PLAN = seed=7; latency=client:150ms
chaos-smoke:
	$(GO) run ./examples/livecluster -faults '$(CHAOS_PLAN)' -spans-dir chaos-spans | sed -n '/CHAOS SUMMARY/,$$p' > chaos-run1.txt
	$(GO) run ./examples/livecluster -faults '$(CHAOS_PLAN)' | sed -n '/CHAOS SUMMARY/,$$p' > chaos-run2.txt
	@grep -q 'chaos: completed, data verified' chaos-run1.txt || { echo "chaos-smoke: run did not complete"; exit 1; }
	@diff chaos-run1.txt chaos-run2.txt || { echo "chaos-smoke: summaries differ across identical runs"; exit 1; }
	$(GO) run ./cmd/ibridge-trace -merge -o chaos-trace.json chaos-spans/*.spans
	@echo "chaos-smoke: completed, byte-verified, reproducible:"; cat chaos-run1.txt
	@echo "chaos-smoke: merged trace in chaos-trace.json (load in chrome://tracing)"
	@rm -rf chaos-spans chaos-run1.txt chaos-run2.txt
	$(GO) run ./examples/livecluster -hedge -ops 40 -faults '$(HEDGE_PLAN)' | sed -n '/HEDGE SUMMARY/,$$p' > hedge-run1.txt
	$(GO) run ./examples/livecluster -hedge -ops 40 -faults '$(HEDGE_PLAN)' | sed -n '/HEDGE SUMMARY/,$$p' > hedge-run2.txt
	@grep -q 'hedge: completed, data verified' hedge-run1.txt || { echo "chaos-smoke: hedged run did not complete"; exit 1; }
	@diff hedge-run1.txt hedge-run2.txt || { echo "chaos-smoke: hedge summaries differ across identical runs"; exit 1; }
	@echo "chaos-smoke: hedged run byte-verified, reproducible:"; cat hedge-run1.txt
	@rm -f hedge-run1.txt hedge-run2.txt
	$(GO) run ./examples/livecluster -faults '$(CHAOS_PLAN)' -store log | sed -n '/CHAOS SUMMARY/,$$p' > chaos-log-run1.txt
	$(GO) run ./examples/livecluster -faults '$(CHAOS_PLAN)' -store log | sed -n '/CHAOS SUMMARY/,$$p' > chaos-log-run2.txt
	@grep -q 'chaos: completed, data verified' chaos-log-run1.txt || { echo "chaos-smoke: log-store run did not complete"; exit 1; }
	@diff chaos-log-run1.txt chaos-log-run2.txt || { echo "chaos-smoke: log-store summaries differ across identical runs"; exit 1; }
	@echo "chaos-smoke: log-store cluster byte-verified, reproducible:"; cat chaos-log-run1.txt
	@rm -f chaos-log-run1.txt chaos-log-run2.txt
	$(GO) run ./cmd/logstore-chaos | sed -n '/RECOVERY SUMMARY/,$$p' > recovery-summary.txt
	$(GO) run ./cmd/logstore-chaos | sed -n '/RECOVERY SUMMARY/,$$p' > recovery-run2.txt
	@grep -q 'zero data loss' recovery-summary.txt || { echo "chaos-smoke: recovery loop did not complete"; exit 1; }
	@diff recovery-summary.txt recovery-run2.txt || { echo "chaos-smoke: recovery summaries differ across identical runs"; exit 1; }
	@echo "chaos-smoke: kill-at-every-Kth-op recovery loop byte-verified, reproducible:"; cat recovery-summary.txt
	@rm -f recovery-run2.txt

# Coverage across all packages, with an HTML report in cover.html.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -html=cover.out -o cover.html
	$(GO) tool cover -func=cover.out | tail -1

# The full gate: vet, the invariant lint suite, race on the
# concurrency-bearing packages, the regular test suite (which includes
# the engine alloc-regression guard), the hot-path bench smoke, the
# committed-benchmark regression gate, and the chaos smoke
# (fault-injected live cluster, reproducible summary).
ci: vet lint race test bench-smoke bench-check chaos-smoke
