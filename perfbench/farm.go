package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"mcmsim/internal/experiments"
	"mcmsim/internal/farm"
	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
	"mcmsim/internal/snapshot"
)

// farmSweeps is the farm's suite slice: every sweep that declares warmups
// plus the seeded sweeps, 65 jobs.
var farmSweeps = []string{"equalization", "latency", "contention", "protocol", "advehill", "warmequal", "reissue"}

// farmCheckpointEvery is the checkpoint interval, in simulated cycles,
// that makes the snapshot upload path carry load.
const farmCheckpointEvery = 2000

// farmW runs the suite slice through farm.Run with 2 loopback workers and
// checkpoint uploads on, cycling through mixedSeeds specs like paper, and
// checks its rows against the in-process pool's.
type farmW struct {
	specs []farm.JobSpec
	jobs  [][]runner.Job
	ref   [][]string // row digests from the 2-worker in-process pool
}

// newFarm enumerates the run's specs and runs each on the 2-worker
// in-process pool once, before any pass: every farm pass of a spec must
// reproduce those rows, and those errors.
func newFarm(seed int64) (*farmW, error) {
	w := &farmW{}
	for k := 0; k < mixedSeeds; k++ {
		spec := farm.JobSpec{Kind: "sweep", Exps: farmSweeps, Procs: experiments.DefaultParams().Procs, Seed: mixedSeed(seed, k)}
		jobs, err := farm.Enumerate(spec)
		if err != nil {
			return nil, err
		}
		var ref []string
		for _, r := range runner.Run(jobs, runner.Options{Workers: 2, WarmupCache: runner.NewWarmupCache()}) {
			ref = append(ref, resultDigest(r))
		}
		w.specs, w.jobs, w.ref = append(w.specs, spec), append(w.jobs, jobs), append(w.ref, ref)
	}
	return w, nil
}

// resultDigest digests a job's row, or its error.
func resultDigest(r runner.Result) string {
	if r.Err != nil {
		return digest("error: " + r.Err.Error())
	}
	return digest(r.Row)
}

func (w *farmW) passes() int { return mixedSeeds }

func (w *farmW) pass(i int, t *tally, tr *tracer) (sample, error) {
	k := i % mixedSeeds
	var first, last time.Time
	var firstWall time.Duration
	opts := farm.Options{
		LocalWorkers:    2,
		CheckpointEvery: farmCheckpointEvery,
		OnProgress: func(p runner.Progress) {
			now := time.Now()
			if first.IsZero() {
				first, firstWall = now, p.Wall
			}
			last = now
		},
	}
	var span int
	if tr != nil {
		span = tr.begin("farm.run", -1, tr.op())
		tr.markUnsplit("farm run")
	}
	start := time.Now()
	c0, a0 := cpuTime(), totalAlloc()
	results, stats, err := farm.Run(w.specs[k], opts)
	end := time.Now()
	s := sample{cpu: cpuTime() - c0, alloc: totalAlloc() - a0}
	if tr != nil {
		tr.end(span)
	}
	if err != nil {
		return sample{}, fmt.Errorf("farm: %w", err)
	}
	// Set-up is measured from outside: the time before the first
	// completion, less that job's own run time on its worker.
	s.setup = first.Sub(start) - firstWall
	s.wall = end.Sub(start) - s.setup
	for n, r := range results {
		t.check(opName(r.Name, w.specs[k].Seed), w.checkRow(k, n, r))
	}
	if tr != nil {
		tr.count("farm.leases", float64(stats.Leases))
		tr.count("farm.checkpoints", float64(stats.Checkpoints))
		tr.count("farm.warm_fetches", float64(stats.WarmFetches))
		tr.count("farm.reassigned", float64(stats.Reassigned))
		tr.count("farm.drain_s", end.Sub(last).Seconds())
		w.tracePool(k, tr)
		w.replayCheckpoints(k, t, tr)
	}
	return s, nil
}

func (w *farmW) checkRow(k, n int, r runner.Result) error {
	if n >= len(w.ref[k]) || resultDigest(r) != w.ref[k][n] {
		return mismatchf("result %v (error %v) differs from the in-process pool's", r.Row, r.Err)
	}
	return r.Err
}

// tracePool times the same jobs on a 2-worker in-process pool, the
// baseline of farm.overhead_s.
func (w *farmW) tracePool(k int, tr *tracer) {
	s := tr.begin("farm.pool", -1, tr.op())
	runner.Run(w.jobs[k], runner.Options{Workers: 2, WarmupCache: runner.NewWarmupCache()})
	tr.end(s)
}

// replayCheckpoints re-runs every job with the farm's checkpoint interval
// and pushes each checkpoint through the snapshot path a farm upload and
// resume take: System.Snapshot and snapshot.Write, snapshot.Read, then
// sim.Restore.
func (w *farmW) replayCheckpoints(k int, t *tally, tr *tracer) {
	cache := runner.NewWarmupCache()
	for n, j := range w.jobs[k] {
		op := tr.op()
		root := tr.begin("snapshot.replay", -1, op)
		tr.markUnsplit("checkpointed replay")
		var saveErr error
		opts := runner.JobOptions{Warmups: cache, Drive: func(s *sim.System) (uint64, error) {
			return s.RunCheckpointed(farmCheckpointEvery, func(s *sim.System) error {
				saveErr = errors.Join(saveErr, roundTrip(s, root, op, tr))
				return nil
			})
		}}
		r := runner.RunJob(j, opts)
		tr.end(root)
		if r.Err == nil {
			r.Err = saveErr
		}
		t.check("replay/"+opName(r.Name, w.specs[k].Seed), w.checkRow(k, n, r))
	}
}

// roundTrip encodes, decodes and restores one checkpoint under spans.
func roundTrip(s *sim.System, parent, op int, tr *tracer) error {
	enc := tr.begin("snapshot.encode", parent, op)
	m, err := s.Snapshot()
	var buf bytes.Buffer
	if err == nil {
		err = snapshot.Write(&buf, m)
	}
	tr.end(enc)
	if err != nil {
		return err
	}
	tr.count("snapshot.bytes", float64(buf.Len()))
	dec := tr.begin("snapshot.decode", parent, op)
	m2, err := snapshot.Read(&buf)
	tr.end(dec)
	if err != nil {
		return err
	}
	rs := tr.begin("snapshot.restore", parent, op)
	_, err = sim.Restore(m2)
	tr.end(rs)
	return err
}
