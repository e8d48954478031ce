// Package runner executes independent simulations in parallel without
// giving up the repository's determinism guarantee.
//
// Every experiment in this repository is a sweep: a nested loop over
// configurations (model x technique, miss latency, sharing fraction, ...)
// where each iteration builds a fresh machine, runs it to completion and
// records one measurement. The simulations are single-goroutine and share
// no mutable state, so the sweep is embarrassingly parallel at the job
// level — the same run-level parallelism production architectural
// simulators use, with each individual simulation kept strictly
// deterministic.
//
// The package splits a sweep into enumeration and execution:
//
//   - The experiment code enumerates []Job values instead of executing its
//     loop bodies inline. A Job carries a name, an optional Configure step
//     (assemble the sim.System, including warmup runs) and a Run step
//     (drive it, extract a Row).
//   - Run executes the job list on a bounded worker pool (Options.Workers,
//     default runtime.NumCPU()) and returns results in job order
//     regardless of completion order, so a parallel sweep yields exactly
//     the rows, in exactly the order, of the serial one.
//
// Failure containment: a panic inside a job is recovered into that job's
// Result.Err (with stack) and the pool keeps draining; an error in
// Configure or Run likewise stays with its job. Rows collapses results
// into rows, surfacing the first failure tagged with the job's name.
//
// Usage:
//
//	jobs := experiments.EqualizationJobs(3, 7, coherence.ProtoInvalidate)
//	rows, err := runner.Execute(jobs, 8) // 8 workers
//
// Progress (jobs done / total, per-job wall time and simulated cycles) is
// observable via Options.OnProgress; cmd/sweep prints it to stderr so the
// result tables on stdout stay byte-identical for every worker count.
//
// The package also owns the measurement Row type and the report
// formatters (WriteReport: table, json, csv) shared by cmd/sweep, the
// benchmarks and the determinism regression tests.
package runner
