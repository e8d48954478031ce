package cpu_test

import (
	"fmt"
	"testing"

	"mcmsim/internal/coherence"
	"mcmsim/internal/conformance"
	"mcmsim/internal/core"
	"mcmsim/internal/cpu"
	"mcmsim/internal/isa"
	"mcmsim/internal/sim"
	"mcmsim/internal/workload"
)

// checkEveryCycle adds a trace hook to s that holds every processor's
// ready list to the whole-buffer reference after each stepped cycle.
func checkEveryCycle(t *testing.T, s *sim.System) {
	t.Helper()
	s.TraceHooks = append(s.TraceHooks, func(s *sim.System, now uint64) {
		for _, p := range s.Procs {
			if err := cpu.CheckReadyList(p, now+1); err != nil {
				t.Fatalf("after cycle %d: %v", now, err)
			}
		}
	})
}

// TestReadyListComplete holds the execute stage's ready list to the
// whole-reorder-buffer sweep it replaced, after every stepped cycle: every
// entry the sweep finds work for is listed, the list is id-ascending and
// live, and NextWake answers as the sweep did. A wake that is too
// optimistic would otherwise show up only as a changed cycle count
// somewhere downstream. The machines cover conformance programs 1–64 on
// the model × technique × timing grid under MSI and MESI, a loop whose
// branch mispredicts every other iteration, a branch restored from an
// earlier build's snapshot, and machines restored from mid-flight
// snapshots.
func TestReadyListComplete(t *testing.T) {
	t.Run("conformance", func(t *testing.T) {
		opts := conformance.CheckOptions{
			Protocols: []coherence.Protocol{coherence.ProtoInvalidate, coherence.ProtoMESI},
			Drive: func(s *sim.System) (uint64, error) {
				checkEveryCycle(t, s)
				return s.Run()
			},
		}
		for seed := int64(1); seed <= 64; seed++ {
			if _, viols := conformance.CheckProgram(conformance.Generate(seed, conformance.Params{}), opts); len(viols) > 0 {
				t.Fatalf("program %d: %v", seed, viols[0])
			}
		}
	})

	t.Run("mispredicting-loop", func(t *testing.T) {
		for _, cfg := range []sim.Config{sim.PaperConfig(), sim.RealisticConfig()} {
			cfg.CPU.ROBSize = 16
			s := sim.New(cfg, []*isa.Program{cpu.MispredictingLoop()})
			checkEveryCycle(t, s)
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if got := s.Procs[0].Reg(isa.R3); got != 500 {
				t.Errorf("accumulator = %d, want 500", got)
			}
			if n := s.Procs[0].Stats.Counter("branches_mispredicted").Value(); n < 50 {
				t.Errorf("only %d mispredictions; the loop needs squashes", n)
			}
		}
	})

	t.Run("earlier-build-branch", func(t *testing.T) {
		// A snapshot saved by an earlier build can hold an in-flight branch
		// whose second operand names ROB id 0. Here entry 0 is a store,
		// which retires under RC before it performs and never delivers a
		// value, so only its retirement can wake the branch.
		b := isa.NewBuilder()
		b.StoreAbs(isa.R0, 0x100)
		b.Bnez(isa.R0, "t") // predicted not taken, not taken
		b.Li(isa.R2, 5)
		b.Label("t")
		b.Li(isa.R3, 7)
		b.Halt()
		cfg := sim.PaperConfig()
		cfg.Model = core.RC
		s := sim.New(cfg, []*isa.Program{b.Build()})
		if _, err := s.RunUntil(1); err != nil {
			t.Fatal(err)
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		br := &snap.Procs[0].CPU.ROB[1]
		if br.ID != 1 || !br.Executed {
			t.Fatalf("entry 1 is %+v, want the resolved branch", *br)
		}
		br.Executed, br.ExecSet, br.ExecAt = false, false, 0
		br.Src2 = cpu.OperandState{Producer: 0}
		restored, err := sim.Restore(snap)
		if err != nil {
			t.Fatal(err)
		}
		checkEveryCycle(t, restored)
		if _, err := restored.Run(); err != nil {
			t.Fatal(err)
		}
		if r2, r3 := restored.Procs[0].Reg(isa.R2), restored.Procs[0].Reg(isa.R3); r2 != 5 || r3 != 7 {
			t.Errorf("r2, r3 = %d, %d, want 5, 7", r2, r3)
		}
	})

	t.Run("restored", func(t *testing.T) {
		mix := func() []*isa.Program {
			progs := make([]*isa.Program, 3)
			for p := range progs {
				progs[p] = workload.RandomSharing(p, 3, workload.EqualizationMix(7))
			}
			return progs
		}
		barrier := func() []*isa.Program {
			progs := make([]*isa.Program, 4)
			for p := range progs {
				progs[p] = workload.BarrierPhases(p, 4, 2, 64)
			}
			return progs
		}
		type machine struct {
			name  string
			cfg   sim.Config
			progs func() []*isa.Program
		}
		var machines []machine
		for _, m := range core.AllModels {
			for _, tc := range conformance.GridTechs() {
				cfg := sim.RealisticConfig()
				cfg.Procs, cfg.Model, cfg.Tech = 3, m, tc.Tech
				machines = append(machines, machine{fmt.Sprintf("mix/%v/%s", m, tc.Name), cfg, mix})
			}
		}
		mesh := sim.RealisticConfig()
		mesh.Procs, mesh.Model, mesh.Tech = 4, core.RC, core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}
		mesh.Topo, mesh.HopLatency = "mesh", 1
		machines = append(machines, machine{"barrier/mesh", mesh, barrier})

		for _, mc := range machines {
			ref := sim.New(mc.cfg, mc.progs())
			end, err := ref.Run()
			if err != nil {
				t.Fatalf("%s: %v", mc.name, err)
			}
			for _, cut := range []uint64{end / 3, 2 * end / 3} {
				s := sim.New(mc.cfg, mc.progs())
				if _, err := s.RunUntil(cut); err != nil {
					t.Fatalf("%s: %v", mc.name, err)
				}
				snap, err := s.Snapshot()
				if err != nil {
					t.Fatalf("%s cut %d: %v", mc.name, cut, err)
				}
				restored, err := sim.Restore(snap)
				if err != nil {
					t.Fatalf("%s cut %d: %v", mc.name, cut, err)
				}
				checkEveryCycle(t, restored)
				got, err := restored.Run()
				if err != nil {
					t.Fatalf("%s cut %d: %v", mc.name, cut, err)
				}
				if got != end {
					t.Errorf("%s cut %d: restored machine halts at %d, uncut at %d", mc.name, cut, got, end)
				}
			}
		}
	})
}
