package parsim_test

import (
	"testing"

	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/parsim"
	"mcmsim/internal/sim"
	"mcmsim/internal/workload"
)

// benchmarkShards runs the largest E2-style row — the 8-processor mixed
// sharing workload at the sweep's longest miss latency (400 cycles), SC
// and RC under conventional and combined techniques — with the given shard
// worker count. par=1 is the sequential loop; par>1 routes through the
// shard engine, whose windows are the network's 45-cycle latency.
// "simcycles/s" is aggregate simulated throughput; the par=N / par=1 ns/op
// ratio is the scaling table in EXPERIMENTS.md.
func benchmarkShards(b *testing.B, par int) {
	const procs = 8
	progs := mixProgs(procs, 7)
	var total uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total = 0
		for _, m := range []core.Model{core.SC, core.RC} {
			for _, tc := range []core.Technique{
				{},
				{Prefetch: true, SpecLoad: true, ReissueOpt: true},
			} {
				cfg := sim.RealisticConfig().WithMissLatency(400)
				cfg.Procs = procs
				cfg.Model = m
				cfg.Tech = tc
				total += runBench(b, sim.New(cfg, progs), par)
			}
		}
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "simcycles/s")
}

func BenchmarkParallelShards1(b *testing.B) { benchmarkShards(b, 1) }
func BenchmarkParallelShards2(b *testing.B) { benchmarkShards(b, 2) }
func BenchmarkParallelShards4(b *testing.B) { benchmarkShards(b, 4) }
func BenchmarkParallelShards8(b *testing.B) { benchmarkShards(b, 8) }

// benchmarkMeshShards times the sequential loop on the wide-sharing
// workload on a 16-CPU mesh with 1-cycle hops. The shard engine declines
// a lookahead that short, so the benchmark has no sharded variant.
func benchmarkMeshShards(b *testing.B) {
	cfg := sim.RealisticConfig()
	cfg.Procs = 16
	cfg.Model = core.RC
	cfg.Tech = core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}
	cfg.Topo = "mesh"
	cfg.HopLatency = 1
	cfg.MemModules = 16
	cfg.DirPointers = 8
	progs := wideProgs(16, 4, 4)
	var total uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total = runBench(b, sim.New(cfg, progs), 1)
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "simcycles/s")
}

func BenchmarkMeshShards1(b *testing.B) { benchmarkMeshShards(b) }

// benchmarkMeshBarrier is the bulk-synchronous low-lookahead benchmark:
// four CPUs on a memory-rich 1-cycle-hop mesh, each computing a long
// data-parallel phase on private lines (warm after a cold-miss trickle)
// and meeting at a sense-reversing barrier. The shard engine declines a
// lookahead that short, so only the sequential loop is timed; perfbench's
// mesh workload runs the same machine.
func benchmarkMeshBarrier(b *testing.B) {
	const procs = 4
	cfg := sim.RealisticConfig()
	cfg.Procs = procs
	cfg.Model = core.RC
	cfg.Tech = core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}
	cfg.Topo = "mesh"
	cfg.HopLatency = 1
	cfg.MemModules = 16
	cfg.DirPointers = 8
	progs := make([]*isa.Program, procs)
	for p := range progs {
		progs[p] = workload.BarrierPhases(p, procs, 1, 32768)
	}
	var total uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total = runBench(b, sim.New(cfg, progs), 1)
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "simcycles/s")
}

func BenchmarkMeshBarrier1(b *testing.B) { benchmarkMeshBarrier(b) }

// runBench runs s to completion: sequentially at par=1, else through the
// shard engine, which must not decline.
func runBench(b *testing.B, s *sim.System, par int) uint64 {
	if par <= 1 {
		cycles, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		return cycles
	}
	cycles, handled, err := parsim.Run(s, par)
	if !handled {
		b.Fatal("shard engine declined the benchmark config")
	}
	if err != nil {
		b.Fatal(err)
	}
	return cycles
}
