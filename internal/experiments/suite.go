package experiments

import (
	"mcmsim/internal/coherence"
	"mcmsim/internal/runner"
)

// Params carries the knobs shared by the workload sweeps. The per-sweep
// grids (latency points, sharing fractions, ROB sizes, ...) are fixed by
// the suite so every consumer — cmd/sweep, the benchmarks, the
// EXPERIMENTS.md tables — reproduces the same rows.
type Params struct {
	Procs int   // processors for the workload experiments
	Seed  int64 // workload seed

	// Protocol is the base coherence protocol of every sweep without a
	// protocol axis of its own; the zero value is MSI. E5 compares
	// protocols itself and E10's litmus job pins MSI, so neither reads it.
	// It changes results: under MESI, E13's conventional rows drop from
	// 12800 to 6464 cycles.
	Protocol coherence.Protocol

	// ScaleCPUs and ScaleTopo size the E16 scale sweep's machines; the
	// other sweeps run the paper-scale machine and ignore them. Zero
	// values mean ScaleCPUCounts on an auto-sized mesh.
	ScaleCPUs []int
	ScaleTopo string
}

// DefaultParams are the values EXPERIMENTS.md's tables were recorded with.
func DefaultParams() Params { return Params{Procs: 3, Seed: 7} }

// Sweep is one named entry of the evaluation suite: an experiment ID (the
// DESIGN.md row), a short description, and the job enumerator.
type Sweep struct {
	Name string // cmd/sweep -exp name
	ID   string // DESIGN.md experiment row (E1..E16)
	Desc string
	Jobs func(Params) []runner.Job
}

// Suite returns the full evaluation suite in DESIGN.md order (E1..E16; E8
// is test/bench-only and has no sweep). The job lists of several sweeps
// can be concatenated and executed on one shared worker pool; rows come
// back partitioned per sweep because job order is preserved.
func Suite() []Sweep {
	return []Sweep{
		{"equalization", "E1", "model x technique grid (the §5 claim)",
			func(p Params) []runner.Job { return EqualizationJobs(p.Procs, p.Seed, p.Protocol) }},
		{"latency", "E2", "miss-latency sweep, SC vs RC",
			func(p Params) []runner.Job {
				return LatencySweepJobs(p.Procs, p.Seed, []uint64{20, 50, 100, 200, 400}, p.Protocol)
			}},
		{"contention", "E3", "speculation squash rate vs write sharing",
			func(p Params) []runner.Job {
				return ContentionSweepJobs(p.Procs, p.Seed, []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8}, p.Protocol)
			}},
		{"lookahead", "E4", "reorder-buffer size vs technique benefit",
			func(p Params) []runner.Job { return LookaheadSweepJobs([]int{2, 4, 8, 16, 32, 64}, p.Protocol) }},
		{"protocol", "E5", "invalidation vs update coherence",
			func(p Params) []runner.Job { return ProtocolComparisonJobs(p.Procs, p.Seed) }},
		{"advehill", "E6", "Adve-Hill SC comparator (§6)",
			func(p Params) []runner.Job { return AdveHillComparisonJobs(32, p.Protocol) }},
		{"nst", "E7", "Stenstrom cacheless comparator (§6)",
			func(p Params) []runner.Job { return StenstromComparisonJobs(32, p.Protocol) }},
		{"swprefetch", "E9", "hardware vs software prefetch windows (§6)",
			func(p Params) []runner.Job {
				return SoftwarePrefetchComparisonJobs([]int{4, 8, 16, 32, 64}, p.Protocol)
			}},
		{"scdetect", "E10", "SC-violation detection on relaxed hardware (§6, ref [6])",
			func(p Params) []runner.Job { return SCDetectionJobs(p.Protocol) }},
		{"detection", "E11", "conservative vs repeat-and-compare detection (§4.1)",
			func(p Params) []runner.Job { return DetectionPolicyComparisonJobs(3, 8, p.Protocol) }},
		{"bandwidth", "E12", "home-module bandwidth and interleaving (§6)",
			func(p Params) []runner.Job { return BandwidthComparisonJobs(8, p.Protocol) }},
		{"mshr", "E13", "lockup-free cache MSHR sweep (§3.2)",
			func(p Params) []runner.Job { return MSHRSweepJobs([]int{1, 2, 4, 8, 16}, p.Protocol) }},
		{"reissue", "E14", "reissue-only correction vs flush-always (§4.2)",
			func(p Params) []runner.Job { return ReissueAblationJobs(p.Procs, p.Seed, p.Protocol) }},
		{"warmequal", "E15", "model x technique grid on warmed caches (shared-warmup sweep)",
			func(p Params) []runner.Job { return WarmedEqualizationJobs(p.Protocol) }},
		{"scale", "E16", "many-core mesh scale sweep: SC vs RC at 16/64/256 CPUs",
			func(p Params) []runner.Job {
				cpus, topo := p.ScaleCPUs, p.ScaleTopo
				if len(cpus) == 0 {
					cpus = ScaleCPUCounts
				}
				if topo == "" {
					topo = "mesh"
				}
				return scaleSweepJobs(cpus, topo, p.Protocol)
			}},
	}
}

// SweepByName looks a suite entry up by its cmd/sweep name.
func SweepByName(name string) (Sweep, bool) {
	for _, s := range Suite() {
		if s.Name == name {
			return s, true
		}
	}
	return Sweep{}, false
}

// SuiteNames lists the suite's sweep names in suite order.
func SuiteNames() []string {
	var names []string
	for _, s := range Suite() {
		names = append(names, s.Name)
	}
	return names
}
