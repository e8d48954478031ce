package parsim_test

import (
	"fmt"
	"testing"

	"mcmsim/internal/coherence"
	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/sim"
	"mcmsim/internal/workload"
)

func wideProgs(nprocs, lines, rounds int) []*isa.Program {
	progs := make([]*isa.Program, nprocs)
	for p := 0; p < nprocs; p++ {
		progs[p] = workload.WideSharing(p, nprocs, lines, rounds)
	}
	return progs
}

// barrierProgs is the bulk-synchronous workload: private compute phases,
// quiet once their lines are warm, separated by sense-reversing barriers.
func barrierProgs(nprocs, phases, work int) []*isa.Program {
	progs := make([]*isa.Program, nprocs)
	for p := range progs {
		progs[p] = workload.BarrierPhases(p, nprocs, phases, work)
	}
	return progs
}

// meshConfig is the 16-CPU wide-sharing mesh machine: one home module per
// tile and the limited-pointer directory.
func meshConfig(m core.Model, tech core.Technique) sim.Config {
	cfg := sim.RealisticConfig()
	cfg.Procs = 16
	cfg.Model = m
	cfg.Tech = tech
	cfg.Topo = "mesh"
	cfg.MemModules = 16
	cfg.DirPointers = 8
	return cfg
}

// meshDiff is the differential gate for the topology-aware network: on a
// mesh with per-hop latency and per-link contention, the sharded engine
// must reproduce the sequential run exactly for every worker count. This
// is the hardest case for the barrier design — arrival times depend on
// mutable link-occupancy state, so they are only engine-independent
// because Exchange.Barrier replays the topology's Arrival calls in exact
// sequential send order.
func meshDiff(t *testing.T, twin bool) {
	for _, m := range []core.Model{core.SC, core.RC} {
		for _, tc := range techniques {
			t.Run(fmt.Sprintf("%v/%s", m, tc.name), func(t *testing.T) {
				cfg := meshConfig(m, tc.tech)
				if twin {
					cfg = lowLookahead(cfg)
				}
				progs := wideProgs(16, 3, 3)
				seq := runSeq(t, cfg, progs)
				for _, par := range []int{2, 4, 8} {
					diffResults(t, fmt.Sprintf("par=%d", par), seq, runPar(t, cfg, progs, par))
				}
			})
		}
	}
}

func TestParallelEngineMeshMatchesSequential(t *testing.T) { meshDiff(t, false) }

func TestParallelEngineOptimisticMesh(t *testing.T) { meshDiff(t, true) }

// meshCongested raises contention (LinkGap 4, a narrow 2x8 mesh, two home
// columns) so link queueing dominates timing; queueing delays must still
// be byte-identical across engines.
func meshCongested(t *testing.T, twin bool) {
	cfg := meshConfig(core.SC, core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true})
	cfg.Topo = "mesh:2x8"
	cfg.LinkGap = 4
	cfg.MemModules = 2
	cfg.DirPointers = 4
	if twin {
		cfg = lowLookahead(cfg)
	}
	for _, progs := range [][]*isa.Program{wideProgs(16, 4, 2), barrierProgs(16, 2, 16)} {
		seq := runSeq(t, cfg, progs)
		for _, par := range []int{2, 8} {
			diffResults(t, fmt.Sprintf("par=%d", par), seq, runPar(t, cfg, progs, par))
		}
	}
}

func TestParallelEngineMeshCongested(t *testing.T) { meshCongested(t, false) }

func TestParallelEngineOptimisticMeshCongested(t *testing.T) { meshCongested(t, true) }

// mesiDiff pins the protocol axis: exclusive-clean grants and silent MESI
// evictions must stay engine-independent on both network shapes.
func mesiDiff(t *testing.T, twin bool) {
	uniform := sim.RealisticConfig()
	uniform.Procs = 3
	uniform.Model = core.RC
	uniform.Tech = core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}
	mesh := meshConfig(core.SC, core.Technique{Prefetch: true})
	for _, c := range []struct {
		name  string
		cfg   sim.Config
		progs []*isa.Program
		pars  []int
	}{
		{"uniform", uniform, mixProgs(3, 7), []int{2, 4, 8}},
		{"mesh", mesh, wideProgs(16, 3, 3), []int{2, 4}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Protocol = coherence.ProtoMESI
			if twin {
				cfg = lowLookahead(cfg)
			}
			seq := runSeq(t, cfg, c.progs)
			for _, par := range c.pars {
				diffResults(t, fmt.Sprintf("par=%d", par), seq, runPar(t, cfg, c.progs, par))
			}
		})
	}
}

func TestParallelEngineMESI(t *testing.T) { mesiDiff(t, false) }

func TestParallelEngineOptimisticMESI(t *testing.T) { mesiDiff(t, true) }
