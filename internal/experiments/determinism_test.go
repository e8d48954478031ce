package experiments

import (
	"bytes"
	"testing"

	"mcmsim/internal/coherence"
	"mcmsim/internal/runner"
)

// renderSweep executes the given jobs with the given worker count and
// renders the result table exactly as cmd/sweep would.
func renderSweep(t *testing.T, name string, jobs []runner.Job, workers int) []byte {
	t.Helper()
	rows, err := runner.Rows(runner.Run(jobs, runner.Options{Workers: workers}))
	if err != nil {
		t.Fatalf("%s (j=%d): %v", name, workers, err)
	}
	var buf bytes.Buffer
	if err := runner.WriteReport(&buf, runner.FormatTable, []runner.Table{{Name: name, Rows: rows}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelSweepDeterminism is the regression gate for the parallel
// execution engine: running the equalization and latency sweeps serially
// (-j 1) and on a saturated pool (-j 8) must produce byte-identical result
// tables. Each simulation is single-goroutine and jobs share no state, so
// any divergence here means the runner leaked state between workers or
// lost the enumeration order.
func TestParallelSweepDeterminism(t *testing.T) {
	sweeps := []struct {
		name string
		jobs func() []runner.Job
	}{
		{"equalization", func() []runner.Job { return EqualizationJobs(3, 7, coherence.ProtoInvalidate) }},
		{"latency", func() []runner.Job { return LatencySweepJobs(3, 7, []uint64{20, 100}, coherence.ProtoInvalidate) }},
	}
	for _, sw := range sweeps {
		sw := sw
		t.Run(sw.name, func(t *testing.T) {
			t.Parallel()
			serial := renderSweep(t, sw.name, sw.jobs(), 1)
			parallel := renderSweep(t, sw.name, sw.jobs(), 8)
			if !bytes.Equal(serial, parallel) {
				t.Errorf("-j 1 and -j 8 tables differ:\n--- j=1 ---\n%s--- j=8 ---\n%s", serial, parallel)
			}
		})
	}
}

// TestSuiteRegistry sanity-checks the registry: names are unique, every
// enumerator yields jobs, every job is executor-driven (Measure, so
// Options.Drive and the farm's checkpointed drive reach it), and lookups
// work.
func TestSuiteRegistry(t *testing.T) {
	p := DefaultParams()
	seen := map[string]bool{}
	for _, s := range Suite() {
		if seen[s.Name] {
			t.Errorf("duplicate sweep name %q", s.Name)
		}
		seen[s.Name] = true
		if s.ID == "" || s.Desc == "" {
			t.Errorf("sweep %q missing ID or description", s.Name)
		}
		jobs := s.Jobs(p)
		if len(jobs) == 0 {
			t.Errorf("sweep %q enumerates no jobs", s.Name)
		}
		for _, j := range jobs {
			if j.Name == "" || (j.Run == nil && j.Measure == nil) {
				t.Errorf("sweep %q has a malformed job: %+v", s.Name, j)
			}
			if j.Measure == nil {
				t.Errorf("sweep %q job %s is an opaque Run job; the executor cannot drive it", s.Name, j.Name)
			}
		}
	}
	if _, ok := SweepByName("equalization"); !ok {
		t.Error("SweepByName failed to find equalization")
	}
	if _, ok := SweepByName("nope"); ok {
		t.Error("SweepByName found a nonexistent sweep")
	}
	if len(SuiteNames()) != len(Suite()) {
		t.Error("SuiteNames length mismatch")
	}
}
