package parsim_test

import (
	"fmt"
	"reflect"
	"testing"

	"mcmsim/internal/conformance"
	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/sim"
)

// TestParallelEngineConformParity runs a conformance batch — generated
// litmus programs checked across the model × technique × timing grid
// against the exhaustive SC oracle — with every cell driven through the
// parallel engine (CheckOptions.Par), and requires the verdict to be identical to the
// sequential batch down to every counter and violation. This is the
// `conform` leg of the -par differential: the harness observes outcomes,
// cycle counts and detector verdicts, so any engine divergence surfaces as
// a report mismatch (and a real consistency-model bug would too).
func TestParallelEngineConformParity(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance batch; skipped in -short mode")
	}
	t.Parallel()
	run := func(par int) conformance.Report {
		return conformance.CheckBatch(1, 8, conformance.Params{}, 1, conformance.CheckOptions{Par: par}, nil)
	}
	seq := run(0)
	if seq.Stats.Cells == 0 {
		t.Fatal("sequential batch ran no cells")
	}
	for _, par := range []int{2, 4} {
		got := run(par)
		if !reflect.DeepEqual(seq, got) {
			t.Errorf("conformance report differs between -par 1 and -par %d:\nseq: %+v\npar: %+v", par, seq, got)
		}
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
