package main

import (
	"fmt"
	"strings"

	"mcmsim/internal/experiments"
	"mcmsim/internal/runner"
)

// seededSweeps are the suite entries whose jobs read experiments.Params
// (Procs and the mixed-workload Seed); every other E1-E15 sweep enumerates
// the same rows at any seed (see experiments.Suite). Job names start with
// their sweep's name.
var seededSweeps = map[string]bool{
	"equalization": true, "latency": true, "contention": true, "protocol": true, "reissue": true,
}

// mixedSeeds is how many mixed-workload seeds a paper or farm run cycles
// through, one per pass. The seeded sweeps' cost moves with the seed (a
// pass's allocation differs by a tenth between seeds), so a run spreads its
// passes over several seeds and reports the mean over them.
const mixedSeeds = 8

// mixedSeed is the mixed-workload seed of op-list position k of a run with
// seed s; position 0 uses s itself.
func mixedSeed(s int64, k int) int64 { return s + int64(k)<<20 }

// opName names a sweep job's op: a seeded job is a different op at every
// mixed-workload seed.
func opName(job string, mixed int64) string {
	if sweep, _, _ := strings.Cut(job, "/"); seededSweeps[sweep] {
		return fmt.Sprintf("%s@%d", job, mixed)
	}
	return job
}

// paperJobs enumerates E1-E15: every suite sweep except the E16 scale
// sweep, with the given mixed-workload seed.
func paperJobs(mixed int64) []runner.Job {
	params := experiments.Params{Procs: experiments.DefaultParams().Procs, Seed: mixed}
	var jobs []runner.Job
	for _, sw := range experiments.Suite() {
		if sw.Name != "scale" {
			jobs = append(jobs, sw.Jobs(params)...)
		}
	}
	return jobs
}

// paperW is the paper's own evaluation: Figures 1, 2 and 5 and the E1-E15
// sweeps on a 1-worker pool with the warmup cache.
type paperW struct {
	seed  int64
	seen  map[string]string // row digest per op, from its first pass
	stats map[string]runRef // System.Run's outputs, for the traced drive
	pool  poolInfo
}

func (w *paperW) passes() int { return mixedSeeds }

func (w *paperW) reference() map[string]float64 { return w.pool.reference() }

func (w *paperW) pass(i int, t *tally, tr *tracer) (sample, error) {
	mixed := mixedSeed(w.seed, i%mixedSeeds)
	if tr != nil && w.stats == nil {
		w.captureStats(mixed)
	}
	var clk passClock
	var jobs []runner.Job
	var cache *runner.WarmupCache
	clk.setup(func() {
		jobs = paperJobs(mixed)
		cache = runner.NewWarmupCache()
	})
	clk.resume()
	var fig1 []experiments.Figure1Cell
	var fig2 []experiments.Figure2Result
	var fig5 experiments.Figure5Result
	var err1, err2, err5 error
	figure(tr, "figure1", func() { fig1, err1 = experiments.Figure1Matrix() })
	figure(tr, "figure2", func() { fig2, err2 = experiments.Figure2Grid() })
	figure(tr, "figure5", func() { fig5, err5 = experiments.RunFigure5() })
	var results []runner.Result
	var refs []runRef
	if tr == nil {
		results, w.pool = runPool(jobs, cache)
	} else {
		for _, j := range jobs {
			out := driveJob(j, cache, driveSplit, tr)
			results = append(results, out.res)
			refs = append(refs, newRunRef(out))
		}
	}
	clk.pause()

	t.check("figure1", checkFigure1(fig1, err1))
	t.check("figure2", checkFigure2(fig2, err2))
	t.check("figure5", checkFigure5(fig5, err5))
	for k, r := range results {
		if tr != nil && refs[k] != w.stats[r.Name] {
			// A split of a different simulation is not reported, even
			// where both runs fail.
			return sample{}, fmt.Errorf("traced drive of %s diverged from System.Run: %s", r.Name, refs[k].diff(w.stats[r.Name]))
		}
		t.check(opName(r.Name, mixed), w.checkRow(r, mixed))
	}
	return clk.s, nil
}

// runRef is what the traced drive of a job must reproduce: the digests of
// its result (row or error) and of its machine's StatsReport.
type runRef struct{ result, stats string }

func newRunRef(out jobOut) runRef {
	ref := runRef{result: resultDigest(out.res)}
	if out.sys != nil {
		ref.stats = digest(out.sys.StatsReport())
	}
	return ref
}

func (r runRef) diff(want runRef) string {
	if r.result != want.result {
		return "the result (row or error) differs"
	}
	return "StatsReport differs"
}

// figure runs one opaque figure op, under an op span when traced.
func figure(tr *tracer, name string, f func()) {
	if tr == nil {
		f()
		return
	}
	op := tr.op()
	s := tr.begin(name, -1, op)
	f()
	tr.end(s)
	tr.markUnsplit("figure")
}

// captureStats records every E1-E15 job's result and StatsReport under
// System.Run, the reference the traced per-phase drive must reproduce byte
// for byte, errors included.
func (w *paperW) captureStats(mixed int64) {
	w.stats = map[string]runRef{}
	cache := runner.NewWarmupCache()
	for _, j := range paperJobs(mixed) {
		w.stats[j.Name] = newRunRef(driveJob(j, cache, drivePlain, nil))
	}
}

// checkRow compares one E1-E15 result with its stored digest (a seeded
// sweep's rows only at DefaultSeed) and with the op's first pass.
func (w *paperW) checkRow(r runner.Result, mixed int64) error {
	if r.Err != nil {
		return r.Err
	}
	d := digest(r.Row)
	name := opName(r.Name, mixed)
	if name == r.Name || mixed == DefaultSeed {
		want, ok := paperDigests[r.Name]
		if !ok {
			return mismatchf("no stored digest for this job")
		}
		if d != want {
			return mismatchf("row %v has digest %s, stored %s", r.Row, d, want)
		}
	}
	if w.seen == nil {
		w.seen = map[string]string{}
	}
	if prev, ok := w.seen[name]; ok && prev != d {
		return mismatchf("row %v differs from the first pass's", r.Row)
	}
	w.seen[name] = d
	return nil
}

func checkFigure1(cells []experiments.Figure1Cell, err error) error {
	if err != nil {
		return err
	}
	if len(cells) != 50 {
		return mismatchf("%d cells, want 50", len(cells))
	}
	for _, c := range cells {
		if c.Relaxed && !c.Allowed {
			return mismatchf("%s/%v/%v: forbidden outcome observed", c.Litmus, c.Model, c.Tech)
		}
		if c.Tech == experiments.TechConv && c.Allowed && !c.Relaxed {
			return mismatchf("%s/%v/%v: permitted relaxation not exhibited", c.Litmus, c.Model, c.Tech)
		}
	}
	return nil
}

// checkFigure2 compares the grid with the paper's published cycle counts.
func checkFigure2(grid []experiments.Figure2Result, err error) error {
	if err != nil {
		return err
	}
	want := experiments.PaperFigure2()
	if len(grid) != len(want) {
		return mismatchf("%d cells, the paper has %d", len(grid), len(want))
	}
	for _, r := range grid {
		if w, ok := want[r.Key()]; !ok || r.Cycles != w {
			return mismatchf("%s: %d cycles, the paper reports %d", r.Key(), r.Cycles, w)
		}
	}
	return nil
}

func checkFigure5(res experiments.Figure5Result, err error) error {
	if err != nil {
		return err
	}
	if res.Cycles != figure5Cycles {
		return mismatchf("%d cycles, stored %d", res.Cycles, figure5Cycles)
	}
	if d := digest(res.Trace.String()); d != figure5Digest {
		return mismatchf("trace digest %s, stored %s", d, figure5Digest)
	}
	return nil
}
