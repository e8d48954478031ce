package experiments

import (
	"fmt"

	"mcmsim/internal/coherence"
	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/network"
	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
	"mcmsim/internal/workload"
)

// ScaleCPUCounts is the E16 machine-size grid: a 4x4, an 8x8, and a 16x16
// mesh. 256 CPUs is where full-bit-vector directories stop being plausible
// and where an invalidation can fan out to 100+ sharers — the regime the
// paper's 16-processor results cannot speak to.
var ScaleCPUCounts = []int{16, 64, 256}

// scaleWorkload is the wide-sharing workload sized to the machine: every
// CPU reads a block of shared lines each round (building machine-wide
// sharer sets) and a rotating writer invalidates them all. Rounds shrink as
// the machine grows so the 256-CPU rows stay affordable for CI — the
// fan-out per invalidation, which is what E16 measures, grows with the
// machine regardless of the round count.
func scaleWorkload(cpus int) []*isa.Program {
	rounds := 4
	switch {
	case cpus >= 128:
		rounds = 1
	case cpus >= 32:
		rounds = 2
	}
	progs := make([]*isa.Program, cpus)
	for p := 0; p < cpus; p++ {
		progs[p] = workload.WideSharing(p, cpus, 4, rounds)
	}
	return progs
}

// scaleStats harvests the traffic counters E16 reports: total messages,
// mesh hop and link-wait counts, and the invalidation volume including the
// coarse-vector over-invalidation sweeps.
func scaleStats(s *sim.System) map[string]float64 {
	ex := map[string]float64{"messages": float64(s.Net.MessagesSent)}
	if ms, ok := s.Net.Topology().(*network.Mesh); ok {
		ex["hops"] = float64(ms.HopsTraveled)
		ex["link_waits"] = float64(ms.LinkWaits)
	}
	var inv, sweeps uint64
	for _, d := range s.Dirs {
		inv += d.Stats.Counter("invalidations").Value()
		sweeps += d.Stats.Counter("coarse_inv_sweeps").Value()
	}
	ex["invalidations"] = float64(inv)
	ex["coarse_sweeps"] = float64(sweeps)
	return ex
}

// ScaleSweepJobs enumerates E16: the §5 equalization question re-asked on
// many-core mesh machines. Each machine is the realistic machine scaled by
// sim.Config.ResolveScaled (auto-sized mesh, one home module per tile,
// limited-pointer directory with coarse-vector fallback) and is measured
// under SC conventional, SC prefetch, SC prefetch+speculation, RC
// conventional and RC prefetch+speculation. If prefetch+speculation still closes the SC/RC
// gap when an invalidation fans out across a 16x16 mesh, the paper's claim
// survives two orders of magnitude of scaling. The machines run MSI; the
// suite's E16 entry runs them on Params.Protocol.
func ScaleSweepJobs(cpuCounts []int, topo string) []runner.Job {
	return scaleSweepJobs(cpuCounts, topo, coherence.ProtoInvalidate)
}

func scaleSweepJobs(cpuCounts []int, topo string, proto coherence.Protocol) []runner.Job {
	points := []struct {
		model core.Model
		tech  core.Technique
	}{
		{core.SC, TechConv},
		{core.SC, TechPf},
		{core.SC, TechBoth},
		{core.RC, TechConv},
		{core.RC, TechBoth},
	}
	var jobs []runner.Job
	for _, cpus := range cpuCounts {
		for _, pt := range points {
			cfg := realisticConfig(proto)
			cfg.Procs, cfg.Topo, cfg.Model, cfg.Tech = cpus, topo, pt.model, pt.tech
			cfg, err := cfg.ResolveScaled()
			if err != nil {
				panic(fmt.Sprintf("experiments: E16 machine rejected: %v", err))
			}
			topoName := cfg.Topo
			if topoName == "" {
				topoName = "uniform"
			}
			jobs = append(jobs, simJob(
				fmt.Sprintf("scale/%d/%v/%v", cpus, pt.model, pt.tech),
				map[string]string{
					"cpus": fmt.Sprint(cpus), "topo": topoName,
					"model": pt.model.String(), "tech": pt.tech.String(),
				},
				func() *sim.System { return sim.New(cfg, scaleWorkload(cpus)) },
				scaleStats))
		}
	}
	return jobs
}

// ScaleSweep executes E16 and returns its rows.
func ScaleSweep(cpuCounts []int, topo string) ([]Row, error) {
	return runner.Execute(ScaleSweepJobs(cpuCounts, topo), 0)
}
