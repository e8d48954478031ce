package main

import (
	"fmt"
	"time"

	"mcmsim/internal/core"
	"mcmsim/internal/experiments"
	"mcmsim/internal/isa"
	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
	"mcmsim/internal/workload"
)

// meshJobs is the mesh op list: the E16 wide-sharing machines at 64 and
// 256 CPUs and the 1-cycle-hop 4-CPU barrier machine. All are seedless.
func meshJobs() []runner.Job {
	return append(experiments.ScaleSweepJobs([]int{64, 256}, "mesh"), barrierJob())
}

// barrierJob is the bulk-synchronous low-lookahead machine of parsim's
// MeshBarrier benchmarks: four CPUs on a memory-rich 1-cycle-hop mesh,
// each computing one long private phase and meeting at a sense-reversing
// barrier.
func barrierJob() runner.Job {
	const procs = 4
	return runner.Job{
		Name: "barrier/4/RC/pf+spec",
		Configure: func() (*sim.System, error) {
			cfg := sim.RealisticConfig()
			cfg.Procs = procs
			cfg.Model = core.RC
			cfg.Tech = experiments.TechBoth
			cfg.Topo = "mesh"
			cfg.HopLatency = 1
			cfg.MemModules = 16
			cfg.DirPointers = 8
			progs := make([]*isa.Program, procs)
			for p := range progs {
				progs[p] = workload.BarrierPhases(p, procs, 1, 32768)
			}
			return sim.New(cfg, progs), nil
		},
		Measure: func(s *sim.System, halt uint64) (runner.Row, error) {
			return runner.Row{Labels: map[string]string{"machine": "barrier"}, Cycles: halt}, nil
		},
	}
}

// meshW runs every mesh machine on the sequential loop and again sharded
// over 2 workers; each sharded op must match its sequential twin.
type meshW struct {
	seq time.Duration // the last untraced pass's sequential drive time
}

// meshSeqRun is the reference key of the untraced sequential drive time,
// the numerator of parsim.speedup.
const meshSeqRun = "mesh.seq_run_s"

func (w *meshW) passes() int { return 1 }

func (w *meshW) reference() map[string]float64 {
	return map[string]float64{meshSeqRun: w.seq.Seconds()}
}

func (w *meshW) pass(i int, t *tally, tr *tracer) (sample, error) {
	var clk passClock
	var jobs []runner.Job
	clk.setup(func() { jobs = meshJobs() })
	var seqTime time.Duration
	for _, j := range jobs {
		clk.resume()
		seq := driveJob(j, nil, driveSplit, tr)
		clk.pause()
		seqTime += seq.drive
		seqStats := ""
		if seq.sys != nil {
			seqStats = seq.sys.StatsReport()
		}
		seq.sys = nil
		t.check(j.Name+"/seq", seq.res.Err)

		clk.resume()
		par := driveJob(j, nil, driveSharded, tr)
		clk.pause()
		err := matchSequential(seq.res, seqStats, par)
		if err != nil && tr != nil {
			// The traced drive stepped the sequential twin: a split that
			// may describe a different simulation is not reported.
			return sample{}, fmt.Errorf("%s: traced drive or shard engine diverged: %w", j.Name, err)
		}
		t.check(j.Name+"/sharded", err)
	}
	if tr == nil {
		w.seq = seqTime
	}
	return clk.s, nil
}

// matchSequential requires a sharded run's halt cycle, row and
// StatsReport to equal the sequential run's.
func matchSequential(seq runner.Result, seqStats string, par jobOut) error {
	if par.res.Err != nil {
		return par.res.Err
	}
	if seq.Err != nil {
		return fmt.Errorf("no sequential reference: %v", seq.Err)
	}
	if par.res.Row.Cycles != seq.Row.Cycles {
		return mismatchf("halt cycle %d, sequential %d", par.res.Row.Cycles, seq.Row.Cycles)
	}
	if digest(par.res.Row) != digest(seq.Row) {
		return mismatchf("row %v, sequential %v", par.res.Row, seq.Row)
	}
	if par.sys == nil || par.sys.StatsReport() != seqStats {
		return mismatchf("StatsReport differs from the sequential run's")
	}
	return nil
}
