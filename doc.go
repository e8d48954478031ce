// Package mcmsim is a deterministic cycle-level shared-memory multiprocessor
// simulator reproducing Gharachorloo, Gupta and Hennessy, "Two Techniques to
// Enhance the Performance of Memory Consistency Models" (ICPP 1991).
//
// The paper's two techniques — hardware non-binding prefetch for delayed
// accesses (§3) and speculative execution for loads with coherence-snooping
// detection and rollback (§4) — let the strictest consistency model run
// nearly as fast as the most relaxed one. This module rebuilds the whole
// machine the paper analyses and regenerates every figure plus an E1-E16
// extension suite (see DESIGN.md for the S1-S26 system inventory the
// packages below realize, EXPERIMENTS.md for the paper-versus-measured
// record, and README.md for the guided tour).
//
// The root package holds only this overview and the benchmark harness
// (bench_test.go), which regenerates every figure and experiment via
// `go test -bench=.`.
//
// # Package tree
//
// Substrate (DESIGN.md S1-S2):
//
//   - internal/memsys — word-addressed main memory plus the line geometry
//     (line size, address-to-line mapping) every other layer shares. The
//     home for data when no cache holds it dirty.
//   - internal/network — deterministic point-to-point interconnect with
//     per-endpoint FIFO queues and a pluggable topology: uniform one-way
//     latency (the seed model) or a 2-D mesh with XY dimension-order
//     routing and per-link store-and-forward contention (S24).
//
// Memory-system hierarchy (S3-S4, S16, S20, S22):
//
//   - internal/coherence — the directory: a DASH-style write-invalidate
//     protocol (recalls, requester-collected invalidation acks, per-line
//     versioning) plus a Dragon-style write-update protocol (§3.1's
//     caveat) and the cacheless NST memory for the Stenstrom comparator.
//     Supports multiple interleaved home modules with bounded service
//     bandwidth (the §6 scalability experiments) and limited-pointer
//     sharer tracking with coarse-vector overflow for many-core
//     machines (S25).
//   - internal/cache — the lockup-free L1: MSHRs, request merging (a
//     demand access joins an in-flight prefetch for free), replacement
//     and writeback races resolved by versioning, line pinning per the
//     paper's footnote 3, and a bypass mode for the NST comparator.
//
// Processor (S5-S10, S15, S17-S19, S23):
//
//   - internal/cpu — the dynamically scheduled core of Figure 3: reorder
//     buffer, register renaming via ROB tags, reservation stations, 2-bit
//     branch prediction with speculative fetch, precise state.
//   - internal/core — THE PAPER (Figure 4): the consistency models SC, PC,
//     WCsc, RCsc and RCpc expressed as issue predicates over delay arcs;
//     the store buffer and address unit; the hardware prefetch engine
//     (§3); the speculative-load buffer with detection and correction
//     (§4), including §4.2's reissue-only optimization and §4.1's
//     repeat-and-compare alternative; Appendix A's atomic read-modify-write
//     splitting; and the §6 comparators (Adve-Hill ownership SC, the
//     SC-violation detector of reference [6]).
//
// Assembly and instruction supply (S11-S14):
//
//   - internal/isa — the small RISC ISA (loads/stores, acquire/release,
//     atomics, ALU, branches, software prefetch) and the program Builder.
//   - internal/workload — program generators: the Figure 2/5 examples, the
//     litmus battery, producer/consumer, critical sections, data-race-free
//     random sharing, barriers.
//   - internal/sim — machine assembly and the deterministic cycle loop;
//     configurations (PaperConfig, RealisticConfig) and the one rule that
//     turns a Config into a machine (S26): Config.Resolve fills in the
//     defaults and rejects configurations no machine matches, and
//     Config.ResolveScaled adds the many-core shape (one home module per
//     mesh tile, limited-pointer directory past 8 CPUs); scheduled
//     external writes, warmed-cache program reloading, coherent-snapshot
//     readback.
//   - internal/stats, internal/tracebuf — counters/metrics and the
//     Figure-5-style buffer-snapshot tracing.
//
// Experiments and execution:
//
//   - internal/experiments — one enumerator per figure and E-row: each
//     sweep expands its configuration grid into independent jobs and the
//     plain entry points execute them; the Suite registry names every
//     cmd/sweep experiment.
//   - internal/runner — the parallel sweep-execution engine: a bounded
//     worker pool that runs whole simulations as jobs, preserves
//     enumeration order, contains per-job panics, reports progress, and
//     renders result tables (table/json/csv). Single simulations stay
//     single-goroutine; parallelism is strictly across jobs.
//
// Binaries under cmd/:
//
//   - cmd/mcsim — run one workload/configuration, print cycles and stats
//     (-cpus and -topo scale the machine up to a contended mesh).
//   - cmd/paperfigs — regenerate Figures 1, 2a, 2b and 5 in paper format.
//   - cmd/sweep — the E1-E16 evaluation sweeps on the parallel runner
//     (-j workers, -format table|json|csv, -out file).
//
// Runnable introductions live in examples/ (quickstart, producer_consumer,
// critical_section, equalization, litmus) and as godoc examples in
// internal/sim and internal/isa.
package mcmsim
