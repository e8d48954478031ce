package experiments

import (
	"bytes"
	"testing"

	"mcmsim/internal/parsim"
	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
)

// shardedDrive advances a machine through the shard engine on up to par
// workers: the -par drive.
func shardedDrive(par int) func(*sim.System) (uint64, error) {
	return func(s *sim.System) (uint64, error) { return parsim.Drive(s, par) }
}

// TestParallelEngineSuiteByteIdentical is the end-to-end differential gate
// for the shard engine: the complete experiment suite (`sweep -exp all`)
// must render byte-identical reports in every output format whether each
// measured phase runs on the sequential loop or on 2, 4 or 8 shard
// workers.
func TestParallelEngineSuiteByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential run; skipped in -short mode")
	}
	t.Parallel()

	for _, format := range []string{runner.FormatTable, runner.FormatJSON, runner.FormatCSV} {
		seq := renderSuite(t, format, runner.Options{})
		par := renderSuite(t, format, runner.Options{Drive: shardedDrive(4)})
		if !bytes.Equal(seq, par) {
			t.Errorf("%s reports differ between -par 1 and -par 4:\n--- sequential ---\n%s--- parallel ---\n%s", format, seq, par)
		}
	}
	// The remaining worker counts on the cheapest format only: shard windows
	// are deterministic, so any divergence is count-independent and the
	// par=4 sweep above would have caught it; this guards the dispatch edges
	// (fewer workers than shards, more workers than shards).
	seq := renderSuite(t, runner.FormatCSV, runner.Options{})
	for _, par := range []int{2, 8} {
		got := renderSuite(t, runner.FormatCSV, runner.Options{Drive: shardedDrive(par)})
		if !bytes.Equal(seq, got) {
			t.Errorf("csv report differs between -par 1 and -par %d", par)
		}
	}
}

// TestParallelEngineFigure5TraceIdentical pins the trace-hook fallback end
// to end: Figure 5's traced phase attaches per-cycle trace hooks, which the
// shard engine must decline, transparently producing the identical trace
// through the sequential loop; its warmup phase does shard.
func TestParallelEngineFigure5TraceIdentical(t *testing.T) {
	t.Parallel()
	seqRes, err := runFigure5((*sim.System).Run)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 8} {
		parRes, err := runFigure5(shardedDrive(par))
		if err != nil {
			t.Fatal(err)
		}
		if seqRes.Cycles != parRes.Cycles {
			t.Errorf("par=%d halt cycle: seq=%d par=%d", par, seqRes.Cycles, parRes.Cycles)
		}
		if s, p := seqRes.Trace.String(), parRes.Trace.String(); s != p {
			t.Errorf("par=%d traces differ:\n--- sequential ---\n%s--- parallel ---\n%s", par, s, p)
		}
	}
}
