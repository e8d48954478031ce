package mcmsim

// The benchmark harness: one benchmark per table/figure of the paper plus
// one per extension experiment, as indexed in DESIGN.md. Each benchmark
// runs the corresponding experiment end to end and reports the headline
// quantity (simulated cycles) via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's evaluation in one command. Wall-clock ns/op
// measures simulator speed; the "cycles" metrics are the architectural
// results the paper reports.

import (
	"fmt"
	"runtime"
	"testing"

	"mcmsim/internal/coherence"
	"mcmsim/internal/core"
	"mcmsim/internal/experiments"
	"mcmsim/internal/isa"
	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
	"mcmsim/internal/workload"
)

// BenchmarkExample1 regenerates Figure 2's Example 1 row (F2a): the
// lock/write/write/unlock producer under SC and RC, conventional vs
// prefetch vs both techniques.
func BenchmarkExample1(b *testing.B) {
	for _, m := range []core.Model{core.SC, core.RC} {
		for _, t := range []core.Technique{experiments.TechConv, experiments.TechPf, experiments.TechBoth} {
			b.Run(fmt.Sprintf("%v/%v", m, t), func(b *testing.B) {
				var cycles uint64
				for i := 0; i < b.N; i++ {
					var err error
					cycles, err = experiments.RunExample1(m, t)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(cycles), "cycles")
			})
		}
	}
}

// BenchmarkExample2 regenerates Figure 2's Example 2 row (F2b): the
// consumer with a dependent access (read E[D]), where prefetching alone
// falls short and speculative loads recover the full overlap.
func BenchmarkExample2(b *testing.B) {
	for _, m := range []core.Model{core.SC, core.RC} {
		for _, t := range []core.Technique{experiments.TechConv, experiments.TechPf, experiments.TechBoth} {
			b.Run(fmt.Sprintf("%v/%v", m, t), func(b *testing.B) {
				var cycles uint64
				for i := 0; i < b.N; i++ {
					var err error
					cycles, err = experiments.RunExample2(m, t)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(cycles), "cycles")
			})
		}
	}
}

// BenchmarkFigure1Litmus regenerates the Figure 1 ordering matrix (F1):
// the litmus battery across all four models, conventional and with both
// techniques. The metric is the number of cells whose outcome matches the
// model's delay arcs (48 = all).
func BenchmarkFigure1Litmus(b *testing.B) {
	var okCells int
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Figure1Matrix()
		if err != nil {
			b.Fatal(err)
		}
		okCells = 0
		for _, c := range cells {
			if !(c.Relaxed && !c.Allowed) {
				okCells++
			}
		}
	}
	b.ReportMetric(float64(okCells), "cells-ok")
}

// BenchmarkFigure5Trace regenerates the §4.3 execution trace (F5),
// reporting the run length of the traced walkthrough.
func BenchmarkFigure5Trace(b *testing.B) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure5()
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// sweepRows runs one sweep's jobs on the default worker pool and returns
// its rows in job order.
func sweepRows(b *testing.B, jobs []runner.Job) []runner.Row {
	b.Helper()
	rows, err := runner.Rows(runner.Run(jobs, runner.Options{}))
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

// BenchmarkEqualization regenerates experiment E1: the model x technique
// grid on the data-race-free mixed workload, reporting the SC/RC cycle
// ratio with both techniques (the §5 equalization claim; ~1.0 is perfect).
func BenchmarkEqualization(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := sweepRows(b, experiments.EqualizationJobs(3, 7, coherence.ProtoInvalidate))
		byKey := map[string]uint64{}
		for _, r := range rows {
			byKey[r.Labels["model"]+"/"+r.Labels["tech"]] = r.Cycles
		}
		ratio = float64(byKey["SC/pf+spec"]) / float64(byKey["RC/pf+spec"])
	}
	b.ReportMetric(ratio, "SC:RC-ratio")
}

// BenchmarkLatencySweep regenerates experiment E2 at its largest point
// (400-cycle misses), reporting SC-with-techniques cycles.
func BenchmarkLatencySweep(b *testing.B) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		rows := sweepRows(b, experiments.LatencySweepJobs(3, 7, []uint64{400}, coherence.ProtoInvalidate))
		for _, r := range rows {
			if r.Labels["model"] == "SC" && r.Labels["tech"] == "pf+spec" {
				cycles = r.Cycles
			}
		}
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// BenchmarkContentionSweep regenerates experiment E3 at heavy sharing,
// reporting the speculation squash rate.
func BenchmarkContentionSweep(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		rows := sweepRows(b, experiments.ContentionSweepJobs(3, 11, []float64{0.6}, coherence.ProtoInvalidate))
		rate = rows[0].Extra["squash_rate"]
	}
	b.ReportMetric(rate, "squash-rate")
}

// BenchmarkLookaheadSweep regenerates experiment E4, reporting the
// technique speedup at a 64-entry window.
func BenchmarkLookaheadSweep(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows := sweepRows(b, experiments.LookaheadSweepJobs([]int{64}, coherence.ProtoInvalidate))
		byTech := map[string]uint64{}
		for _, r := range rows {
			byTech[r.Labels["tech"]] = r.Cycles
		}
		speedup = float64(byTech["conv"]) / float64(byTech["pf+spec"])
	}
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkProtocolComparison regenerates experiment E5, reporting the
// prefetch speedup under the invalidation protocol (the update protocol's
// is structurally smaller — no read-exclusive prefetch).
func BenchmarkProtocolComparison(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		rows := sweepRows(b, experiments.ProtocolComparisonJobs(2, 7))
		byKey := map[string]uint64{}
		for _, r := range rows {
			byKey[r.Labels["protocol"]+"/"+r.Labels["tech"]] = r.Cycles
		}
		gain = float64(byKey["invalidate/conv"]) / float64(byKey["invalidate/pf"])
	}
	b.ReportMetric(gain, "pf-speedup")
}

// BenchmarkAdveHill regenerates experiment E6, reporting the Adve-Hill
// speedup over conventional SC (the paper predicts it is limited).
func BenchmarkAdveHill(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		rows := sweepRows(b, experiments.AdveHillComparisonJobs(32, coherence.ProtoInvalidate))
		byImpl := map[string]uint64{}
		for _, r := range rows {
			byImpl[r.Labels["impl"]] = r.Cycles
		}
		gain = float64(byImpl["conv"]) / float64(byImpl["advehill"])
	}
	b.ReportMetric(gain, "ah-speedup")
}

// BenchmarkStenstromNST regenerates experiment E7, reporting how many times
// slower the cacheless NST scheme is than cached conventional SC on a
// workload with reuse.
func BenchmarkStenstromNST(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		rows := sweepRows(b, experiments.StenstromComparisonJobs(32, coherence.ProtoInvalidate))
		byImpl := map[string]uint64{}
		for _, r := range rows {
			byImpl[r.Labels["impl"]] = r.Cycles
		}
		slowdown = float64(byImpl["stenstrom-NST"]) / float64(byImpl["cached-SC"])
	}
	b.ReportMetric(slowdown, "nst-slowdown")
}

// BenchmarkRMW regenerates experiment E8's headline: contended atomic
// read-modify-writes with the full Appendix A machinery (speculative
// read-exclusive + squash-after-issue), reporting cycles for a 4-processor
// counter run.
func BenchmarkRMW(b *testing.B) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := sim.RealisticConfig()
		cfg.Procs = 4
		cfg.Model = core.SC
		cfg.Tech = experiments.TechBoth
		progs := make([]*isa.Program, 4)
		for p := 0; p < 4; p++ {
			progs[p] = workload.CriticalSection(p, 4, 3, 2, 1)
		}
		s := sim.New(cfg, progs)
		var err error
		cycles, err = s.Run()
		if err != nil {
			b.Fatal(err)
		}
		if got := s.ReadCoherent(workload.CounterAddr(0)); got != 24 {
			b.Fatalf("counter = %d, want 24", got)
		}
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// BenchmarkSweepSuite runs the entire E-series evaluation (every suite
// sweep's full job list, 110 independent simulations) through the parallel
// execution engine at several worker counts. ns/op is the wall time of one
// complete `sweep -exp all` equivalent; "simcycles/s" is aggregate
// simulation throughput. Comparing the j1 and jN sub-benchmarks measures
// the run-level parallel speedup on the host (bounded by GOMAXPROCS and by
// the longest single job).
func BenchmarkSweepSuite(b *testing.B) {
	params := experiments.DefaultParams()
	var jobs []runner.Job
	for _, s := range experiments.Suite() {
		jobs = append(jobs, s.Jobs(params)...)
	}
	workerCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("j%d", workers), func(b *testing.B) {
			var total uint64
			for i := 0; i < b.N; i++ {
				results := runner.Run(jobs, runner.Options{Workers: workers})
				rows, err := runner.Rows(results)
				if err != nil {
					b.Fatal(err)
				}
				total = 0
				for _, r := range rows {
					total += r.Cycles
				}
			}
			b.ReportMetric(float64(len(jobs)), "jobs")
			b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "simcycles/s")
		})
	}
}

// benchmarkSuiteWarmup runs the suite's warmup-declaring sweeps — E6's
// Adve-Hill comparison (three variants sharing one warmup) and E15's
// warmed-cache grid (ten variants sharing one warmup) — with and without
// the warmup-snapshot cache. A fresh cache per iteration keeps the
// measurement honest: every iteration simulates each distinct warmup
// exactly once and clones it for the remaining points, versus thirteen
// cold warmup simulations without the cache. The cycles metric must not
// move between the two variants (the cache is observationally inert); the
// cold/cache ns/op ratio is the suite wall-clock win EXPERIMENTS.md
// reports.
func benchmarkSuiteWarmup(b *testing.B, cached bool) {
	jobs := append(experiments.AdveHillComparisonJobs(32, coherence.ProtoInvalidate), experiments.WarmedEqualizationJobs(coherence.ProtoInvalidate)...)
	var rowsSum uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := runner.Options{Workers: 1}
		if cached {
			opts.WarmupCache = runner.NewWarmupCache()
		}
		rows, err := runner.Rows(runner.Run(jobs, opts))
		if err != nil {
			b.Fatal(err)
		}
		rowsSum = 0
		for _, r := range rows {
			rowsSum += r.Cycles
		}
	}
	b.ReportMetric(float64(rowsSum), "cycles")
}

func BenchmarkSuiteWarmupCold(b *testing.B)  { benchmarkSuiteWarmup(b, false) }
func BenchmarkSuiteWarmupCache(b *testing.B) { benchmarkSuiteWarmup(b, true) }

// BenchmarkSnapshotRoundTrip measures the snapshot machinery itself: one
// iteration serializes a warmed 3-processor machine and restores a private
// clone from it — the per-job cost a cache hit pays instead of simulating
// the warmup.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	cfg := sim.RealisticConfig()
	cfg.Procs = 3
	cfg.Model = core.SC
	cfg.Tech = experiments.TechBoth
	progs := make([]*isa.Program, 3)
	for p := 0; p < 3; p++ {
		progs[p] = workload.RandomSharing(p, 3, workload.EqualizationMix(7))
	}
	s := sim.New(cfg, progs)
	if _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := s.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed: simulated
// cycles per wall-clock second on the mixed workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	progs := make([]*isa.Program, 3)
	for p := 0; p < 3; p++ {
		progs[p] = workload.RandomSharing(p, 3, workload.EqualizationMix(7))
	}
	var total uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.RealisticConfig()
		cfg.Tech = experiments.TechBoth
		cfg.Procs = 3
		s := sim.New(cfg, progs)
		cycles, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		total += cycles
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "simcycles/s")
}

// BenchmarkSoftwarePrefetch regenerates experiment E9 (hardware vs software
// prefetch windows, §6), reporting the hw/sw cycle ratio at a 4-entry
// instruction window (large = software's arbitrarily-large window wins).
func BenchmarkSoftwarePrefetch(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := sweepRows(b, experiments.SoftwarePrefetchComparisonJobs([]int{4}, coherence.ProtoInvalidate))
		byKey := map[string]uint64{}
		for _, r := range rows {
			byKey[r.Labels["prefetch"]] = r.Cycles
		}
		ratio = float64(byKey["hw"]) / float64(byKey["sw"])
	}
	b.ReportMetric(ratio, "hw:sw-ratio")
}

// BenchmarkSCDetection regenerates experiment E10 (the §6 detection
// extension), reporting detections on the racy run (>0 proves the monitor
// sees real violations; the DRF run is asserted zero in tests).
func BenchmarkSCDetection(b *testing.B) {
	var det float64
	for i := 0; i < b.N; i++ {
		rows := sweepRows(b, experiments.SCDetectionJobs(coherence.ProtoInvalidate))
		for _, r := range rows {
			if r.Labels["program"] == "MP-racy" {
				det = r.Extra["detections"]
			}
		}
	}
	b.ReportMetric(det, "racy-detections")
}

// BenchmarkDetectionPolicy regenerates experiment E11 (§4.1's two detection
// mechanisms), reporting the conservative/revalidate cycle ratio under pure
// false sharing (>1 means repeat-and-compare wins).
func BenchmarkDetectionPolicy(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := sweepRows(b, experiments.DetectionPolicyComparisonJobs(3, 8, coherence.ProtoInvalidate))
		byKey := map[string]uint64{}
		for _, r := range rows {
			byKey[r.Labels["workload"]+"/"+r.Labels["policy"]] = r.Cycles
		}
		ratio = float64(byKey["false-sharing/conservative"]) / float64(byKey["false-sharing/revalidate"])
	}
	b.ReportMetric(ratio, "conservative:revalidate")
}

// BenchmarkBandwidth regenerates experiment E12 (home-module bandwidth),
// reporting the single-module slowdown under bounded service.
func BenchmarkBandwidth(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		rows := sweepRows(b, experiments.BandwidthComparisonJobs(8, coherence.ProtoInvalidate))
		byKey := map[string]uint64{}
		for _, r := range rows {
			byKey[r.Labels["modules"]+"/"+r.Labels["bw"]] = r.Cycles
		}
		slowdown = float64(byKey["1/1"]) / float64(byKey["1/inf"])
	}
	b.ReportMetric(slowdown, "single-module-slowdown")
}

// BenchmarkReissueOpt regenerates experiment E14 (§4.2's reissue-only
// correction), reporting the flush-always/reissue-opt cycle ratio.
func BenchmarkReissueOpt(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := sweepRows(b, experiments.ReissueAblationJobs(3, 11, coherence.ProtoInvalidate))
		byKey := map[string]uint64{}
		for _, r := range rows {
			byKey[r.Labels["policy"]] = r.Cycles
		}
		ratio = float64(byKey["flush-always"]) / float64(byKey["reissue-opt"])
	}
	b.ReportMetric(ratio, "flush:reissue")
}

// benchmarkMesh regenerates one machine size of experiment E16: a mesh
// multiprocessor scaled by sim.Config.ResolveScaled running the
// machine-wide sharing workload under the boundary configurations. ns/op
// is the simulator's cost per many-core run (the scaling burden the mesh
// network and limited-pointer directory must keep affordable); the cycles
// metric is the architectural result.
func benchmarkMesh(b *testing.B, cpus int) {
	rounds := 4
	if cpus >= 32 {
		rounds = 2
	}
	progs := make([]*isa.Program, cpus)
	for p := 0; p < cpus; p++ {
		progs[p] = workload.WideSharing(p, cpus, 4, rounds)
	}
	for _, pt := range []struct {
		m core.Model
		t core.Technique
	}{
		{core.SC, experiments.TechConv},
		{core.SC, experiments.TechBoth},
		{core.RC, experiments.TechBoth},
	} {
		b.Run(fmt.Sprintf("%v/%v", pt.m, pt.t), func(b *testing.B) {
			cfg := sim.RealisticConfig()
			cfg.Procs, cfg.Topo, cfg.Model, cfg.Tech = cpus, "mesh", pt.m, pt.t
			cfg, err := cfg.ResolveScaled()
			if err != nil {
				b.Fatal(err)
			}
			var cycles uint64
			for i := 0; i < b.N; i++ {
				s := sim.New(cfg, progs)
				cycles, err = s.Run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

func BenchmarkMesh16(b *testing.B) { benchmarkMesh(b, 16) }
func BenchmarkMesh64(b *testing.B) { benchmarkMesh(b, 64) }
