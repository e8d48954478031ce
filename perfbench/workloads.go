package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"mcmsim/internal/parsim"
	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
)

// workloadNames lists the workloads in the order `--workload all` runs them.
var workloadNames = []string{"paper", "conform", "mesh", "farm"}

// DefaultSeed is the seed the stored paper digests were recorded at: the
// mixed-workload seed of experiments.DefaultParams, which EXPERIMENTS.md's
// tables use.
const DefaultSeed = 7

// bench is one benchmark workload. pass runs pass number i: it sets up
// its inputs, runs its fixed op list, and checks every op's output into t.
// With a non-nil tracer it also records spans and per-layer counters.
type bench interface {
	pass(i int, t *tally, tr *tracer) (sample, error)
	// passes is how many passes cover the op list once; a run makes at
	// least that many.
	passes() int
}

// refInfo is what an untraced pass measured that the traced run reports
// against: runner-pool figures and the untraced sequential drive time.
type refInfo interface {
	reference() map[string]float64
}

func newWorkload(name string, seed int64) (bench, error) {
	switch name {
	case "paper":
		return &paperW{seed: seed}, nil
	case "conform":
		return &conformW{first: conformFirst(seed), n: conformPrograms, batch: conformBatch}, nil
	case "mesh":
		return &meshW{}, nil
	case "farm":
		return newFarm(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
}

// sample is what one pass measured.
type sample struct {
	setup, wall, cpu time.Duration
	alloc            uint64
}

// passClock times a pass: its set-up, then a timed phase that is the sum
// of the resume..pause intervals, so checks made between ops stay out of it.
type passClock struct {
	t0 time.Time
	c0 time.Duration
	a0 uint64
	s  sample
}

// A pass's set-up takes from tens of microseconds (mesh) to a few
// milliseconds, so one timing of it is mostly clock and scheduler noise.
// setup therefore times repetitions: each of setupTimings timings repeats
// the set-up until setupSpan has passed and divides by the repetitions,
// and the pass reports the median timing and keeps the last inputs.
const (
	setupTimings = 5
	setupSpan    = 10 * time.Millisecond
)

func (c *passClock) setup(f func()) {
	ds := make([]float64, setupTimings)
	for r := range ds {
		t0 := time.Now()
		for n := 1; ; n++ {
			f()
			if d := time.Since(t0); d >= setupSpan {
				ds[r] = float64(d) / float64(n)
				break
			}
		}
	}
	c.s.setup = time.Duration(median(ds))
	// The repetitions' garbage is set-up work; collect it here so the
	// timed phase starts from the same heap a single set-up would leave.
	runtime.GC()
}

func (c *passClock) resume() {
	c.c0, c.a0 = cpuTime(), totalAlloc()
	c.t0 = time.Now()
}

func (c *passClock) pause() {
	c.s.wall += time.Since(c.t0)
	c.s.cpu += cpuTime() - c.c0
	c.s.alloc += totalAlloc() - c.a0
}

// tally accounts a run's ops. An op is one entry of a workload's op
// list; a run executes it once per pass that covers it, and it fails if
// any execution fails. Counting distinct ops keeps attempted and failed
// independent of how many passes fit in the run.
type tally struct {
	ops       map[string]bool   // op name -> failed
	first     map[string]string // the first failure's message per op
	incorrect bool
}

// mismatch is an op output that contradicts its reference: a stored
// digest, the paper's published counts, the sequential twin of a sharded
// run, the in-process pool's rows. Unlike an op that errs or a program
// the conformance oracle rejects, which are defects the workloads exist
// to count, a mismatch makes the run's output incorrect.
type mismatch struct{ msg string }

func (m mismatch) Error() string { return m.msg }

func mismatchf(format string, args ...any) error { return mismatch{fmt.Sprintf(format, args...)} }

// maxMessage bounds a failure message in the report; conformance
// violations list whole outcome sets.
const maxMessage = 400

// check records one execution of op name; a non-nil err fails the op.
func (t *tally) check(name string, err error) {
	t.record(name, err)
	if errors.As(err, new(mismatch)) {
		t.incorrect = true
	}
}

func (t *tally) record(name string, err error) {
	if t.ops == nil {
		t.ops, t.first = map[string]bool{}, map[string]string{}
	}
	if err != nil && !t.ops[name] {
		msg := err.Error()
		if len(msg) > maxMessage {
			msg = msg[:maxMessage] + "..."
		}
		t.first[name] = msg
	}
	t.ops[name] = t.ops[name] || err != nil
}

// attempted is the number of distinct ops executed.
func (t *tally) attempted() int { return len(t.ops) }

// failedNames lists the failed ops in order.
func (t *tally) failedNames() []string {
	var names []string
	for n, failed := range t.ops {
		if failed {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// digest is a short content hash of v's JSON form (maps encode with
// sorted keys, so equal rows digest equally).
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // rows and strings always marshal
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// driveKind selects how driveJob advances a job's machine.
type driveKind int

const (
	drivePlain   driveKind = iota // System.Run
	driveSplit                    // phaseDrive, one timed span per phase
	driveSharded                  // parsim.Run on 2 workers, engine "auto"
)

// shardWorkers is the shard engines' worker count: the host has 2 CPUs.
const shardWorkers = 2

// jobOut is one driven job: its result, and for Measure jobs the finished
// machine, which the caller inspects outside the timed phase and drops.
type jobOut struct {
	res   runner.Result
	sys   *sim.System
	drive time.Duration // time inside the drive
}

// driveJob runs j through runner.RunJob, supplying the drive for Measure
// jobs. With a tracer it records the op's span and, for Measure jobs, a
// build span (Configure, sim.New or warmup restore, up to the drive), a
// drive span and the per-layer counters of the drive.
func driveJob(j runner.Job, warm runner.WarmupSource, kind driveKind, tr *tracer) jobOut {
	var out jobOut
	opts := runner.JobOptions{Warmups: warm}
	var op, root int
	var a0 uint64
	if tr != nil {
		op = tr.op()
		root = tr.begin("job", -1, op)
		a0 = totalAlloc()
	}
	opts.Drive = func(s *sim.System) (halt uint64, err error) {
		out.sys = s
		t0 := time.Now()
		defer func() { out.drive = time.Since(t0) }()
		if tr == nil {
			if kind == driveSharded {
				return runSharded(s)
			}
			return s.Run()
		}
		start := tr.spans[root].start
		tr.add("sim.build", root, op, start, time.Since(tr.epoch)-start)
		a1 := totalAlloc()
		tr.count("sim.build_alloc_bytes", float64(a1-a0))
		c0 := s.Cycle
		switch {
		case kind == driveSharded:
			d := tr.begin("parsim.run", root, op)
			halt, err = runSharded(s)
			tr.end(d)
			tr.countParallel(s.ParReport)
			tr.markUnsplit("sharded run")
			return halt, err
		case kind == driveSplit && splittable(s):
			d := tr.begin("sim.drive", root, op)
			var ps phaseStats
			halt, err = phaseDrive(s, &ps)
			tr.end(d)
			tr.record(d, op, &ps)
			tr.countMachine(s)
		default:
			d := tr.begin("sim.drive", root, op)
			halt, err = s.Run()
			tr.end(d)
			if kind == driveSplit {
				tr.markUnsplit("trace-hook machine")
			}
		}
		tr.count("sim.cycles", float64(s.Cycle-c0))
		tr.count("sim.run_alloc_bytes", float64(totalAlloc()-a1))
		return halt, err
	}
	out.res = runner.RunJob(j, opts)
	if tr != nil {
		tr.end(root)
		if j.Measure == nil {
			tr.markUnsplit("opaque Run job")
		}
	}
	return out
}

// runSharded shards s over the parallel engine's public entry with its
// default engine selection; a configuration every engine declines runs on
// the sequential loop, exactly as System.Run would fall back.
func runSharded(s *sim.System) (uint64, error) {
	halt, handled, err := parsim.Run(s, shardWorkers)
	if !handled {
		return s.Run()
	}
	return halt, err
}

// poolInfo is one runner.Run call on a 1-worker pool.
type poolInfo struct {
	wall         time.Duration
	jobWalls     []float64 // ms
	hits, misses uint64
}

func runPool(jobs []runner.Job, cache *runner.WarmupCache) ([]runner.Result, poolInfo) {
	t0 := time.Now()
	results := runner.Run(jobs, runner.Options{Workers: 1, WarmupCache: cache})
	info := poolInfo{wall: time.Since(t0)}
	for _, r := range results {
		info.jobWalls = append(info.jobWalls, float64(r.Wall)/1e6)
	}
	if cache != nil {
		info.hits, info.misses = cache.Stats()
	}
	return results, info
}

func (p poolInfo) reference() map[string]float64 {
	var sum float64
	for _, w := range p.jobWalls {
		sum += w
	}
	ratio := 0.0
	if p.hits+p.misses > 0 {
		ratio = float64(p.hits) / float64(p.hits+p.misses)
	}
	return map[string]float64{
		"runner.overhead_s":     p.wall.Seconds() - sum/1e3,
		"runner.warm_hit_ratio": ratio,
		"runner.op_ms_p50":      quantile(p.jobWalls, 0.5),
		"runner.op_ms_p90":      quantile(p.jobWalls, 0.9),
		"runner.ops":            float64(len(p.jobWalls)),
	}
}
