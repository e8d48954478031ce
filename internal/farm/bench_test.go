package farm

import (
	"testing"

	"mcmsim/internal/runner"
)

// benchSpec is a small fixed workload: the E1 grid, 16 jobs of a few
// thousand cycles each — enough work that scheduling overhead is visible
// as a ratio, small enough for the benchdiff gate.
var benchSpec = JobSpec{Kind: "sweep", Exps: []string{"equalization"}, Procs: 3, Seed: 7}

// BenchmarkFarmLocalVsInProcess prices the farm's transport: the same job
// list through the in-process pool at -j 2 versus a coordinator with two
// in-process workers, each on its own in-memory pipe (handshake, leases,
// heartbeats, gob-encoded results).
// The two sub-benchmarks produce byte-identical reports; the delta is
// pure coordination overhead.
func BenchmarkFarmLocalVsInProcess(b *testing.B) {
	b.Run("inproc-j2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			jobs, err := Enumerate(benchSpec)
			if err != nil {
				b.Fatal(err)
			}
			results := runner.Run(jobs, runner.Options{Workers: 2, WarmupCache: runner.NewWarmupCache()})
			if _, err := runner.Rows(results); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("farm-2workers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			results, _, err := Run(benchSpec, Options{LocalWorkers: 2})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := runner.Rows(results); err != nil {
				b.Fatal(err)
			}
		}
	})
}
