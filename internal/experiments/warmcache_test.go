package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"mcmsim/internal/coherence"
	"mcmsim/internal/runner"
)

// TestWarmupCacheSuiteByteIdentical is the end-to-end differential gate for
// the warmup-snapshot cache: the complete experiment suite must render
// byte-identical reports in every output format whether each job simulates
// its own warmup or restores a cloned machine snapshot from the cache, on
// one worker and on several. A divergence here means a snapshot failed to
// capture something a restored machine's measured phase could observe.
//
// Not t.Parallel: runs the full suite several times and shares the machine
// with the other full-suite differential tests.
func TestWarmupCacheSuiteByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential run; skipped in -short mode")
	}
	for _, format := range []string{runner.FormatTable, runner.FormatJSON, runner.FormatCSV} {
		cold := renderSuite(t, format, runner.Options{Workers: 1})
		warm := renderSuite(t, format, runner.Options{Workers: 1, WarmupCache: runner.NewWarmupCache()})
		if !bytes.Equal(cold, warm) {
			t.Errorf("%s reports differ between cold warmups and the snapshot cache:\n--- cold ---\n%s--- cached ---\n%s", format, cold, warm)
		}
	}
	// Concurrency changes which job populates each cache entry (the
	// singleflight race) but must not change a byte of output.
	cold := renderSuite(t, runner.FormatCSV, runner.Options{Workers: 4})
	warm := renderSuite(t, runner.FormatCSV, runner.Options{Workers: 4, WarmupCache: runner.NewWarmupCache()})
	if !bytes.Equal(cold, warm) {
		t.Errorf("csv report differs with the snapshot cache on 4 workers")
	}
}

// TestWarmupCacheDedup pins the cache's reason to exist: the three E6
// variants declare the same warmup key, so a cached run simulates the
// warmup once and serves the other two jobs from the snapshot — with rows
// identical to the uncached run's.
func TestWarmupCacheDedup(t *testing.T) {
	cold, err := runner.Rows(runner.Run(AdveHillComparisonJobs(16, coherence.ProtoInvalidate), runner.Options{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	cache := runner.NewWarmupCache()
	warm, err := runner.Rows(runner.Run(AdveHillComparisonJobs(16, coherence.ProtoInvalidate), runner.Options{Workers: 1, WarmupCache: cache}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("rows differ: cold=%v cached=%v", cold, warm)
	}
	hits, misses := cache.Stats()
	if misses != 1 || hits != 2 {
		t.Errorf("cache simulated %d warmups with %d hits; want 1 warmup, 2 hits", misses, hits)
	}
}
