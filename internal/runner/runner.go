package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"mcmsim/internal/sim"
)

// Job is one independent simulation to execute: a human-readable name, an
// optional Configure step that assembles (and possibly warms up) the
// machine, and a Run step that drives it and extracts the measurement.
//
// Both steps execute on the worker that picks the job up, so every worker
// constructs its own sim.System and no machine state is ever shared between
// jobs. A job must therefore not capture mutable state shared with other
// jobs; capturing configuration values (model, technique, latencies, seeds)
// is the intended pattern.
type Job struct {
	// Name identifies the job in progress reports and error messages,
	// conventionally "experiment/label1/label2".
	Name string

	// Configure builds the simulated machine, including any warmup runs
	// (e.g. priming caches before the measured phase). It may be nil for
	// jobs that assemble the system inside Run; then Run receives nil.
	Configure func() (*sim.System, error)

	// Warmup, when non-nil, replaces Configure with a declared warmup the
	// pool can deduplicate: jobs with equal Warmup.Key share one simulated
	// warmup through the snapshot cache (Options.WarmupCache). Without a
	// cache the warmup is simulated per job, exactly like Configure.
	Warmup *WarmupSpec

	// Run drives the configured system to completion and returns the
	// measurement row. Exactly one of Run and Measure must be non-nil: Run
	// owns the whole measured phase (multi-phase drives, oracle checks,
	// jobs with no machine at all), which makes it opaque to the executor.
	Run func(s *sim.System) (Row, error)

	// Measure is the declarative alternative to Run for the common
	// drive-then-extract job shape: the executor drives the configured
	// machine to completion itself (s.Run() on the local pool) and then
	// calls Measure with the finished machine and its halt cycle. Because
	// the executor owns the clock, Measure jobs can be driven through
	// interval checkpoints and resumed from a mid-flight snapshot by
	// executors that support it (the sweep farm) — with identical rows,
	// since snapshot restore and RunUntil slicing are observation-
	// transparent.
	Measure func(s *sim.System, halt uint64) (Row, error)
}

// Result is the outcome of one job. Exactly one of Row/Err is meaningful:
// Err is non-nil if Configure or Run failed or panicked.
type Result struct {
	Name string
	Row  Row
	Err  error
	// Wall is the host wall-clock time the job took (configure + run).
	Wall time.Duration
}

// Progress describes one completed job, delivered to Options.OnProgress in
// completion order. Done counts completed jobs including this one.
type Progress struct {
	Done, Total int
	Name        string
	Cycles      uint64 // simulated cycles of the job's measured run
	Wall        time.Duration
	Err         error
}

// Options controls Run.
type Options struct {
	// Workers bounds the number of jobs executing concurrently.
	// Values <= 0 mean runtime.NumCPU().
	Workers int

	// OnProgress, if non-nil, is called after each job completes. Calls
	// are serialized (never concurrent) but arrive in completion order,
	// which is not deterministic; anything order-sensitive should read
	// the returned results instead.
	OnProgress func(Progress)

	// WarmupCache, if non-nil, deduplicates declared warmups (Job.Warmup)
	// across the run's jobs: each distinct key is simulated once and every
	// job restores a private machine from its snapshot. Results are
	// byte-identical with and without a cache (`make differential` gates
	// this); nil simply re-simulates each job's warmup.
	WarmupCache *WarmupCache

	// Drive, if non-nil, is handed to every job as JobOptions.Drive: it
	// replaces s.Run() for the executor-driven measured phase of Measure
	// jobs (cmd/sweep builds it from -par and -dense). Warmups simulated
	// inside Configure or WarmupSpec.Build keep the sequential loop.
	Drive func(s *sim.System) (uint64, error)

	// OnWorkerIdle, if non-nil, is called once by each worker goroutine
	// when it finds the job queue closed and drained — the hook cmd/sweep
	// uses to release the idle worker's CPU share into the shard engines'
	// goroutine budget (parsim.AddWorkerBudget) for the simulations still
	// running at the sweep's tail.
	OnWorkerIdle func()
}

// Run executes the jobs on a bounded worker pool and returns one Result
// per job, in job order regardless of completion order. Each simulation
// runs on its worker's goroutine unless Options.Drive shards it. A panic
// inside a job is recovered into that job's Err; it never takes down the
// pool.
func Run(jobs []Job, opts Options) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var src WarmupSource
	if opts.WarmupCache != nil {
		src = opts.WarmupCache
	}
	jobCh := make(chan int)
	doneCh := make(chan int)
	for w := 0; w < workers; w++ {
		go func() {
			for i := range jobCh {
				results[i] = RunJob(jobs[i], JobOptions{Warmups: src, Drive: opts.Drive})
				doneCh <- i
			}
			if opts.OnWorkerIdle != nil {
				opts.OnWorkerIdle()
			}
		}()
	}
	go func() {
		for i := range jobs {
			jobCh <- i
		}
		close(jobCh)
	}()
	for done := 1; done <= len(jobs); done++ {
		i := <-doneCh
		if opts.OnProgress != nil {
			opts.OnProgress(Progress{
				Done:   done,
				Total:  len(jobs),
				Name:   results[i].Name,
				Cycles: results[i].Row.Cycles,
				Wall:   results[i].Wall,
				Err:    results[i].Err,
			})
		}
	}
	return results
}

// JobOptions parameterizes RunJob for executors beyond the local pool.
// The zero value reproduces the pool's behavior exactly: warmups simulate
// in place and Measure jobs are driven by one s.Run() call.
type JobOptions struct {
	// Warmups sources declared warmups (Job.Warmup); nil simulates the
	// warmup directly on this executor.
	Warmups WarmupSource

	// Drive, if non-nil, replaces the executor's s.Run() call for Measure
	// jobs — a sharded or dense drive, or the farm worker's RunCheckpointed
	// drive. It must leave the machine in the exact state s.Run() would
	// (sharding, dense stepping and interval checkpointing qualify;
	// anything observable does not). Opaque Run jobs ignore it.
	Drive func(s *sim.System) (uint64, error)

	// Start, if non-nil, is an already-configured machine — typically
	// restored from a mid-flight checkpoint. Configure and Warmup are
	// skipped; the job's measured phase continues on this machine. Only
	// meaningful for Measure jobs, whose measured phase is executor-driven.
	Start *sim.System
}

// RunJob executes a single job with panic containment, exactly as one of
// the pool's workers would. Exported for executors that schedule jobs
// themselves (the farm worker) but must preserve the pool's execution
// semantics byte for byte.
func RunJob(j Job, o JobOptions) (res Result) {
	start := time.Now()
	res.Name = j.Name
	defer func() {
		res.Wall = time.Since(start)
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	s := o.Start
	if s == nil {
		switch {
		case j.Warmup != nil:
			var err error
			if s, err = configureWarm(j.Warmup, o.Warmups); err != nil {
				res.Err = err
				return
			}
		case j.Configure != nil:
			var err error
			if s, err = j.Configure(); err != nil {
				res.Err = err
				return
			}
		}
	}
	var row Row
	var err error
	switch {
	case j.Run != nil:
		row, err = j.Run(s)
	case j.Measure != nil:
		drive := o.Drive
		if drive == nil {
			drive = func(s *sim.System) (uint64, error) { return s.Run() }
		}
		var halt uint64
		if halt, err = drive(s); err == nil {
			row, err = j.Measure(s, halt)
		}
	default:
		err = fmt.Errorf("job has neither Run nor Measure")
	}
	if err != nil {
		res.Err = err
		return
	}
	res.Row = row
	return
}

// Rows collapses results into their rows, preserving job order. The first
// failed job aborts the collapse and is returned as an error carrying the
// job's name.
func Rows(results []Result) ([]Row, error) {
	rows := make([]Row, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, r.Err)
		}
		rows = append(rows, r.Row)
	}
	return rows, nil
}

// Execute is the common enumerate-then-collect path: run the jobs with the
// given worker bound and return the rows in job order.
func Execute(jobs []Job, workers int) ([]Row, error) {
	return Rows(Run(jobs, Options{Workers: workers}))
}
