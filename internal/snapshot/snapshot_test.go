package snapshot_test

import (
	"os"
	"path/filepath"
	"testing"

	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/sim"
	"mcmsim/internal/snapshot"
	"mcmsim/internal/workload"
)

// TestWriteFileConcurrentReader rewrites a snapshot file 200 times while
// another goroutine reads it in a loop, as a farm or an operator may read
// the checkpoint mcsim -checkpoint-every keeps replacing. Every read must
// find a whole snapshot, never an empty or a short file, and the writes
// must leave no temporary file behind.
func TestWriteFileConcurrentReader(t *testing.T) {
	cfg := sim.RealisticConfig()
	cfg.Procs = 2
	cfg.Model = core.RC
	cfg.Tech = core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}
	progs := make([]*isa.Program, cfg.Procs)
	for p := range progs {
		progs[p] = workload.BarrierPhases(p, cfg.Procs, 2, 3)
	}
	s := sim.New(cfg, progs)
	if done, err := s.RunUntil(200); err != nil || done {
		t.Fatalf("the machine did not stop mid-flight (done=%v, err=%v)", done, err)
	}
	m, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.snap")
	if err := snapshot.WriteFile(path, m); err != nil {
		t.Fatal(err)
	}

	const writes = 200
	wrote := make(chan error)
	go func() {
		for range writes {
			if err := snapshot.WriteFile(path, m); err != nil {
				wrote <- err
				return
			}
		}
		wrote <- nil
	}()
	var reads, failed int
	var first error
	for running := true; running; reads++ {
		select {
		case err := <-wrote:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		if _, err := snapshot.ReadFile(path); err != nil {
			if failed++; first == nil {
				first = err
			}
		}
	}
	if failed > 0 {
		t.Errorf("%d of %d reads during %d rewrites failed; the first: %v", failed, reads, writes, first)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("the directory holds %d entries after the writes (%v), want the snapshot alone", len(entries), err)
	}
}
