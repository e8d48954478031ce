package parsim_test

import (
	"fmt"
	"reflect"
	"testing"

	"mcmsim/internal/conformance"
	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/parsim"
	"mcmsim/internal/sim"
)

// TestParallelEngineConformParity runs conformance batches — generated
// litmus programs checked across the model × technique × timing ×
// protocol grid against the exact per-model oracles — with every
// fast-forward cell driven through the shard engine (CheckOptions.Drive),
// and requires each report to equal the sequential batch's down to every
// counter and violation. The harness observes outcomes, cycle counts and
// detector verdicts, so any engine divergence surfaces as a report
// mismatch. The batches are the full grid on 8 programs, and 128 quick
// programs on the uniform network and 64 padded to a 16-CPU mesh. The mesh
// batch carries known simulator violations on both sides, so the test
// asserts parity, not a clean verdict.
func TestParallelEngineConformParity(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance batches; skipped in -short mode")
	}
	t.Parallel()
	for _, c := range []struct {
		name string
		n    int
		opts conformance.CheckOptions
		pars []int
	}{
		{"full", 8, conformance.CheckOptions{}, []int{2, 4}},
		{"quick", 128, conformance.CheckOptions{Quick: true}, []int{4}},
		{"quick-mesh16", 64, conformance.CheckOptions{Quick: true, CPUs: 16, Topo: "mesh"}, []int{4}},
	} {
		t.Run(c.name, func(t *testing.T) {
			seq := conformance.CheckBatch(1, c.n, conformance.Params{}, 0, c.opts, nil)
			if seq.Stats.Cells == 0 {
				t.Fatal("sequential batch ran no cells")
			}
			for _, par := range c.pars {
				opts := c.opts
				opts.Drive = func(s *sim.System) (uint64, error) { return parsim.Drive(s, par) }
				got := conformance.CheckBatch(1, c.n, conformance.Params{}, 0, opts, nil)
				if !reflect.DeepEqual(seq, got) {
					t.Errorf("conformance report differs between the sequential loop and par=%d:\nseq: %+v\npar: %+v", par, seq, got)
				}
			}
		})
	}
}

// TestParallelEngineGeneratedPrograms carries speculation over generated
// litmus programs. No conformance timing reaches a lookahead below 8
// cycles, so the batch runs here instead: conformance.Generate programs
// padded to 4 CPUs on a 1-cycle-hop mesh, sequentially and through the
// engine at 2 and 4 workers. Halt cycle, clock, stats report and memory
// image must be identical, and the batch must roll back.
func TestParallelEngineGeneratedPrograms(t *testing.T) {
	const cpus = 4
	idle := isa.NewBuilder().Halt().Build()
	var rollbacks uint64
	for seed := int64(1); seed <= 64; seed++ {
		progs := conformance.Generate(seed, conformance.Params{}).Build()
		for len(progs) < cpus {
			progs = append(progs, idle)
		}
		for _, m := range core.AllModels {
			for _, tc := range techniques {
				cfg := sim.PaperConfig()
				cfg.Procs = cpus
				cfg.Model = m
				cfg.Tech = tc.tech
				cfg.Topo = "mesh"
				cfg.HopLatency = 1
				cfg.MemModules = cpus
				seq := runSeq(t, cfg, progs)
				for _, par := range []int{2, 4} {
					r := runPar(t, cfg, progs, par)
					rollbacks += r.rollbacks
					diffResults(t, fmt.Sprintf("seed=%d/%v/%s/par=%d", seed, m, tc.name, par), seq, r)
				}
			}
		}
	}
	requireRollbacks(t, rollbacks)
}
