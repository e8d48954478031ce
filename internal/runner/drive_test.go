package runner_test

import (
	"reflect"
	"testing"

	"mcmsim/internal/coherence"
	"mcmsim/internal/experiments"
	"mcmsim/internal/parsim"
	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
)

// TestWarmupKeyIgnoresProcessGlobals pins the property the farm's fleet-
// wide dedup depends on: a warmup key is a pure function of (config,
// programs, preload). How a job is driven — the pool's Options.Drive,
// sequential or sharded — lives outside sim.Config and cannot reach it, so
// E6 and E15 must share and hit the cache identically, with identical
// rows, under either drive.
func TestWarmupKeyIgnoresProcessGlobals(t *testing.T) {
	t.Parallel()
	run := func(drive func(*sim.System) (uint64, error)) ([]runner.Row, [2]uint64) {
		t.Helper()
		jobs := append(experiments.AdveHillComparisonJobs(16, coherence.ProtoInvalidate),
			experiments.WarmedEqualizationJobs(coherence.ProtoInvalidate)...)
		cache := runner.NewWarmupCache()
		rows, err := runner.Rows(runner.Run(jobs, runner.Options{Workers: 2, WarmupCache: cache, Drive: drive}))
		if err != nil {
			t.Fatal(err)
		}
		hits, misses := cache.Stats()
		return rows, [2]uint64{hits, misses}
	}
	seqRows, seqStats := run((*sim.System).Run)
	parRows, parStats := run(func(s *sim.System) (uint64, error) { return parsim.Drive(s, 4) })
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Errorf("rows differ between sequential and sharded drives:\nseq: %v\npar: %v", seqRows, parRows)
	}
	if seqStats != parStats {
		t.Errorf("warmup cache (hits, misses): sequential %v, sharded %v", seqStats, parStats)
	}
	if seqStats[1] != 2 {
		t.Errorf("E6 and E15 simulated %d warmups, want one per sweep", seqStats[1])
	}
}
