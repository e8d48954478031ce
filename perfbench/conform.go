package main

import (
	"errors"
	"fmt"

	"mcmsim/internal/conformance"
	"mcmsim/internal/core"
	"mcmsim/internal/runner"
)

const (
	// conformPrograms is the op list of a run: one block of program seeds,
	// as many as CI's conformance batch checks.
	conformPrograms = 512
	// conformBatch is how many consecutive programs of the block one pass
	// checks, traced or not.
	conformBatch = 32
)

// conformFirst is the first program seed of a run: seed s checks the s-th
// block of conformPrograms seeds, so seed 1 checks programs 1-512 (the
// seeds CI checks) and seed 3 covers program 1039.
func conformFirst(seed int64) int64 { return (seed-1)*conformPrograms + 1 }

// conformW checks seeded conformance programs: the full 150-cell grid,
// both protocols, dense twins, on a 1-worker pool. Program cost is
// heavy-tailed: over program seeds 1-2048 the mean program takes 41 ms of
// CPU and the median one 21 ms, and the costliest twentieth (130 ms to
// 1.3 s each, mostly the exact oracle's state space) take 38% of the time.
// A pass checks a batch of conformBatch consecutive programs, and the
// workload is partitioned: a run's metrics are the mean over its block's
// batches, so the costly programs count by their cost.
type conformW struct {
	first    int64
	n, batch int
	pool     poolInfo
}

func (w *conformW) passes() int { return w.n / w.batch }

func (w *conformW) partitioned() {}

func (w *conformW) reference() map[string]float64 { return w.pool.reference() }

func (w *conformW) pass(i int, t *tally, tr *tracer) (sample, error) {
	first := w.first + int64(i*w.batch%w.n)
	var params conformance.Params
	var opts conformance.CheckOptions
	var clk passClock
	if tr != nil {
		var progs []conformance.Program
		clk.setup(func() {
			progs = make([]conformance.Program, w.batch)
			for k := range progs {
				progs[k] = conformance.Generate(first+int64(k), params)
			}
		})
		clk.resume()
		for _, p := range progs {
			viols := traceProgram(p, opts, tr)
			t.check(fmt.Sprintf("conform/seed%d", p.Seed), violationErr(viols))
		}
		clk.pause()
		return clk.s, nil
	}
	var jobs []runner.Job
	clk.setup(func() { jobs = conformance.BatchJobs(first, w.batch, params, opts) })
	clk.resume()
	results, pool := runPool(jobs, nil)
	clk.pause()
	w.pool = pool
	rep := conformance.BatchReport(first, w.batch, params, results)
	bySeed := map[int64][]conformance.Violation{}
	for _, v := range rep.Violations {
		bySeed[v.Program.Seed] = append(bySeed[v.Program.Seed], v)
	}
	for k := 0; k < w.batch; k++ {
		seed := first + int64(k)
		t.check(fmt.Sprintf("conform/seed%d", seed), violationErr(bySeed[seed]))
	}
	return clk.s, nil
}

// violationErr fails a program with any violation.
func violationErr(viols []conformance.Violation) error {
	if len(viols) == 0 {
		return nil
	}
	return fmt.Errorf("%d violation(s), first: %v", len(viols), viols[0])
}

// traceProgram checks one program with spans around each oracle call and
// around CheckProgram, which runs both oracles again before its cells.
func traceProgram(p conformance.Program, opts conformance.CheckOptions, tr *tracer) []conformance.Violation {
	op := tr.op()
	root := tr.begin("conform.program", -1, op)
	defer tr.end(root)
	tr.markUnsplit("conformance program")
	progs, shared := p.Build(), p.SharedAddrs()
	for _, m := range core.AllModels {
		s := tr.begin("conformance.exact", root, op)
		_, errE := conformance.ModelOutcomes(progs, shared, m)
		tr.end(s)
		s = tr.begin("conformance.legacy", root, op)
		_, errL := conformance.LegacyModelOutcomes(progs, shared, m)
		tr.end(s)
		if err := errors.Join(errE, errL); err != nil {
			return []conformance.Violation{{Program: p, Cell: "oracle/" + m.String(), Kind: "error", Detail: err.Error()}}
		}
	}
	s := tr.begin("conformance.check", root, op)
	stats, viols := conformance.CheckProgram(p, opts)
	tr.end(s)
	tr.count("conformance.cells", float64(stats.Cells))
	tr.count("conformance.relaxed", float64(stats.Relaxed))
	return viols
}
