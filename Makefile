# Pre-PR gate and convenience targets. `make check` is what every change
# must pass before review (documented in README.md): vet (of this module
# and of the perfbench benchmark module), formatting, build, the full test
# suite, the race-detector tier over every package, the fast-forward
# differential tier, a conformance smoke batch against the exact per-model
# oracles (internal/conformance), and the exact-vs-legacy oracle
# differential.

GO ?= go

.PHONY: check vet fmtcheck build test race differential conform oracle-diff cover fuzz bench benchdiff sweep fmt

check: vet fmtcheck build test race differential conform oracle-diff
	@echo "check: OK"

# perfbench is a module of its own, so ./... does not reach it. Vetting it
# compile-checks its calls into this module. Its tests are left out: they
# pin simulated results, which a simulator fix may legitimately move, and
# only a change to the benchmark re-pins them.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

fmtcheck:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency tier: every package must be race-clean — the worker
# pool fans simulations out across goroutines, so any shared state in the
# simulator shows up here.
race:
	$(GO) test -race ./...

# The differential tier: the node wake schedule, the parallel shard
# engine (down to its shortest, 8-cycle windows), machine
# snapshot/restore, and the warmup-snapshot cache must all be
# observationally identical to the plain sequential cold-start run —
# across the model x technique grid, every execution engine, shard-worker
# counts {2,4,8}, the full experiment suite in every output format with
# the cache on and off, generated programs on an 8-cycle-hop mesh
# (TestParallelEngineGeneratedPrograms), and the Figure 5 cycle-level
# trace. TestParallelEngineConformParity re-checks conformance batches
# with every cell sharded — the full grid, 128 quick programs, and 64
# quick programs padded to a 16-CPU mesh: reports must be identical to
# the sequential run. The farm tier holds the distributed coordinator to
# the same bar: a farmed suite and conformance batch must be
# byte-identical to the local pool, through worker deaths, lease expiries,
# checkpoint resumes, and two farms on different specs sharing one
# process. TestReadyListComplete holds the processor's operand wakeup to
# the whole-reorder-buffer sweep it replaced, after every stepped cycle of
# conformance programs 1-64 across the grid, a mispredicting loop and
# machines restored mid-flight.
differential:
	$(GO) test -run 'TestFastForward|TestParallelEngine|TestSnapshot|TestWarmupCache|TestFarm|TestReadyListComplete' ./internal/sim ./internal/experiments ./internal/parsim ./internal/runner ./internal/farm ./internal/cpu

# The conformance tier: a smoke batch of generated litmus programs checked
# against the exact per-model oracles across the model x technique x
# timing x protocol grid (cmd/conform runs larger batches; any failure
# prints a minimized reproducer).
conform:
	$(GO) run ./cmd/conform -seed 1 -n 64 -quiet

# The oracle tier: the exact-vs-legacy differential over a seeded batch
# (exact ⊆ legacy for every model, equality under SC, 1-minimal shrinking
# on failure), the pinned divergence programs, the named litmus corpus,
# the state-cap hard-error contract, both oracles' pinned outcome sets and
# state counts, the search's allocation bound and the outcome text.
oracle-diff:
	$(GO) test -run 'TestOracleDifferential|TestExact|TestLitmusCorpus|TestOracleStateCap|TestOracleOutcomesPinned|TestOracleSearchAllocs|TestOutcomeString' ./internal/conformance

# Per-package statement coverage for the simulator core.
cover:
	$(GO) test -cover ./internal/...

# The native fuzz targets: arbitrary byte strings decode to litmus programs
# that are checked against the oracle on the reduced (paper-timing) grid,
# and arbitrary byte strings fed to snapshot.Read and sim.Restore must come
# back as a machine or as a sim.ErrInvalidSnapshot error, never a panic.
# FuzzRestore feeds each input twice: as a whole snapshot (the framing),
# and as the payload behind a valid header (the gob decoder and Restore,
# past the checksum that refuses almost every mutated snapshot).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzConformance -fuzztime 30s ./internal/conformance
	$(GO) test -run '^$$' -fuzz FuzzRestore -fuzztime 30s -fuzzminimizetime 3s ./internal/sim

# Regenerate every figure/experiment headline via the benchmark harness,
# archiving the results (ns/op, allocs/op, simulated cycles/sec) as
# machine-readable JSON in BENCH_sim.json.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem . ./internal/sim ./internal/parsim ./internal/farm | $(GO) run ./cmd/benchjson -out BENCH_sim.json

# Re-run the benchmark suite and diff it against the committed
# BENCH_sim.json baseline: any benchmark whose ns/op or allocs/op grew by
# more than 15% fails (cmd/benchjson -compare). The fresh results go to a
# scratch file so the baseline only changes via an explicit `make bench`.
benchdiff:
	$(GO) test -run '^$$' -bench=. -benchmem . ./internal/sim ./internal/parsim ./internal/farm | $(GO) run ./cmd/benchjson -out /tmp/BENCH_sim.new.json -compare BENCH_sim.json

# The full evaluation suite on all CPUs.
sweep:
	$(GO) run ./cmd/sweep -exp all

fmt:
	gofmt -w .
