package sim_test

import (
	"fmt"
	"testing"

	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/sim"
	"mcmsim/internal/workload"
)

var allTechs = []core.Technique{
	{},
	{Prefetch: true},
	{SpecLoad: true},
	{SpecLoad: true, ReissueOpt: true},
	{Prefetch: true, SpecLoad: true, ReissueOpt: true},
}

// TestCriticalSectionMutualExclusion runs contended lock-protected counter
// increments on 4 processors under every model and technique combination
// and checks that no increment is lost: locks, RMWs, coherence and
// speculation squashes must all compose correctly.
func TestCriticalSectionMutualExclusion(t *testing.T) {
	const nprocs, rounds, updates = 4, 3, 2
	for _, model := range core.AllModels {
		for _, tech := range allTechs {
			name := fmt.Sprintf("%v/%v", model, tech)
			t.Run(name, func(t *testing.T) {
				cfg := sim.RealisticConfig()
				cfg.Procs = nprocs
				cfg.Model = model
				cfg.Tech = tech
				progs := make([]*isa.Program, nprocs)
				for p := 0; p < nprocs; p++ {
					progs[p] = workload.CriticalSection(p, nprocs, rounds, updates, 1)
				}
				s := sim.New(cfg, progs)
				cycles, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				got := s.ReadCoherent(workload.CounterAddr(0))
				want := int64(nprocs * rounds * updates)
				if got != want {
					t.Errorf("counter = %d, want %d (cycles=%d)", got, want, cycles)
				}
			})
		}
	}
}

// TestProducerConsumer checks the flag-synchronized handoff the paper's
// examples are built from: the consumer must observe every produced item
// once the release-store flag is visible, under every model and technique.
func TestProducerConsumer(t *testing.T) {
	const items = 8
	for _, model := range core.AllModels {
		for _, tech := range allTechs {
			name := fmt.Sprintf("%v/%v", model, tech)
			t.Run(name, func(t *testing.T) {
				cfg := sim.RealisticConfig()
				cfg.Procs = 2
				cfg.Model = model
				cfg.Tech = tech
				prod, cons := workload.ProducerConsumer(items)
				s := sim.New(cfg, []*isa.Program{prod, cons})
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
				want := int64(items * (items + 1) / 2)
				if got := s.ReadCoherent(workload.SumAddr); got != want {
					t.Errorf("consumer checksum = %d, want %d", got, want)
				}
			})
		}
	}
}

// TestTechniquesPreserveFinalState runs an identical random workload under
// every technique combination and checks the per-processor private memory
// matches the conventional run exactly: the techniques are performance
// mechanisms only and must never change single-thread results. (Shared
// words written by racing critical sections legitimately end with whichever
// processor's section ran last, so only the private regions are compared;
// the lock must end released everywhere.)
func TestTechniquesPreserveFinalState(t *testing.T) {
	const nprocs = 3
	privateWord := func(a uint64) bool { return a >= 0x10000 }
	for _, model := range core.AllModels {
		t.Run(model.String(), func(t *testing.T) {
			var baseline map[uint64]int64
			for _, tech := range allTechs {
				cfg := sim.RealisticConfig()
				cfg.Procs = nprocs
				cfg.Model = model
				cfg.Tech = tech
				progs := make([]*isa.Program, nprocs)
				for p := 0; p < nprocs; p++ {
					progs[p] = workload.RandomSharing(p, nprocs, workload.DefaultMix(42))
				}
				s := sim.New(cfg, progs)
				if _, err := s.Run(); err != nil {
					t.Fatalf("%v: %v", tech, err)
				}
				if lock := s.ReadCoherent(0x1000); lock != 0 {
					t.Errorf("%v: lock not released, value %d", tech, lock)
				}
				snap := make(map[uint64]int64)
				for a, v := range s.CoherentSnapshot() {
					if privateWord(a) {
						snap[a] = v
					}
				}
				if baseline == nil {
					baseline = snap
					continue
				}
				if len(snap) != len(baseline) {
					t.Errorf("%v: %d private words, baseline %d", tech, len(snap), len(baseline))
					continue
				}
				for a, v := range baseline {
					if snap[a] != v {
						t.Errorf("%v: mem[%#x] = %d, baseline %d", tech, a, snap[a], v)
					}
				}
			}
		})
	}
}

// TestFalseSharingConservativeSquash runs neighbours hammering words in the
// same line with speculative loads on: footnote 2's conservative policy
// (invalidation due to false sharing squashes) must still converge to the
// correct final values.
func TestFalseSharingConservativeSquash(t *testing.T) {
	const nprocs, writes = 4, 6
	cfg := sim.RealisticConfig()
	cfg.Procs = nprocs
	cfg.Model = core.SC
	cfg.Tech = core.Technique{SpecLoad: true, ReissueOpt: true, Prefetch: true}
	cfg.LineWords = 4 // neighbours share lines
	progs := make([]*isa.Program, nprocs)
	for p := 0; p < nprocs; p++ {
		progs[p] = workload.FalseSharing(p, writes)
	}
	s := sim.New(cfg, progs)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < nprocs; p++ {
		got := s.ReadCoherent(uint64(0x4000 + p))
		if got != int64(writes-1) {
			t.Errorf("proc %d word = %d, want %d", p, got, writes-1)
		}
	}
	// Each processor must also have read back its own last write.
	for p := 0; p < nprocs; p++ {
		if got := s.Procs[p].Reg(isa.R2); got != int64(writes-1) {
			t.Errorf("proc %d read back %d, want %d", p, got, writes-1)
		}
	}
}

// TestBarrierPhases runs the sense-reversing barrier (atomic fetch-add
// arrival + release-published sense + acquire spinning) across all models
// and techniques: every phase must run exactly once on every processor, so
// the per-processor checksums are invariant across configurations and the
// final sense equals the phase count.
func TestBarrierPhases(t *testing.T) {
	const nprocs, phases, work = 4, 5, 3
	var baseline []int64
	for _, model := range core.AllModels {
		for _, tech := range allTechs {
			name := fmt.Sprintf("%v/%v", model, tech)
			cfg := sim.RealisticConfig()
			cfg.Procs = nprocs
			cfg.Model = model
			cfg.Tech = tech
			progs := make([]*isa.Program, nprocs)
			for p := 0; p < nprocs; p++ {
				progs[p] = workload.BarrierPhases(p, nprocs, phases, work)
			}
			s := sim.New(cfg, progs)
			if _, err := s.Run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := s.ReadCoherent(workload.BarrierSenseAddr); got != int64(phases) {
				t.Errorf("%s: final sense = %d, want %d", name, got, phases)
			}
			if got := s.ReadCoherent(workload.BarrierCountAddr); got != 0 {
				t.Errorf("%s: arrival counter not reset: %d", name, got)
			}
			sums := make([]int64, nprocs)
			for p := 0; p < nprocs; p++ {
				sums[p] = s.ReadCoherent(uint64(workload.PhaseSumBase + int64(p)))
			}
			if baseline == nil {
				baseline = sums
				continue
			}
			for p := range sums {
				if sums[p] != baseline[p] {
					t.Errorf("%s: proc %d checksum %d, baseline %d", name, p, sums[p], baseline[p])
				}
			}
		}
	}
}

// TestMultiHomeInvariance checks that interleaving lines across several
// home modules (with unlimited bandwidth and uniform latency) changes no
// architectural result and — for the paper's worked examples — no cycle
// count either.
func TestMultiHomeInvariance(t *testing.T) {
	const nprocs = 3
	for _, modules := range []int{2, 4} {
		cfg := sim.RealisticConfig()
		cfg.Procs = nprocs
		cfg.Model = core.SC
		cfg.Tech = core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}
		cfg.MemModules = modules
		progs := make([]*isa.Program, nprocs)
		for p := 0; p < nprocs; p++ {
			progs[p] = workload.CriticalSection(p, nprocs, 3, 2, 1)
		}
		s := sim.New(cfg, progs)
		if _, err := s.Run(); err != nil {
			t.Fatalf("modules=%d: %v", modules, err)
		}
		if got := s.ReadCoherent(workload.CounterAddr(0)); got != int64(nprocs*3*2) {
			t.Errorf("modules=%d: counter = %d", modules, got)
		}
	}
}

// TestUncachedRMWLocks runs contended locks whose lock word is declared
// non-cachable (Appendix A's first case): the atomics perform at the memory
// module, mutual exclusion still holds under every model and technique, and
// the lock line never becomes resident in any cache.
func TestUncachedRMWLocks(t *testing.T) {
	const nprocs, rounds, updates = 3, 2, 2
	for _, model := range core.AllModels {
		for _, tech := range []core.Technique{{}, {Prefetch: true, SpecLoad: true, ReissueOpt: true}} {
			name := fmt.Sprintf("%v/%v", model, tech)
			cfg := sim.RealisticConfig()
			cfg.Procs = nprocs
			cfg.Model = model
			cfg.Tech = tech
			cfg.UncachedRMW = []uint64{0x1000} // the lock word
			progs := make([]*isa.Program, nprocs)
			for p := 0; p < nprocs; p++ {
				progs[p] = workload.CriticalSection(p, nprocs, rounds, updates, 1)
			}
			s := sim.New(cfg, progs)
			if _, err := s.Run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := int64(nprocs * rounds * updates)
			if got := s.ReadCoherent(workload.CounterAddr(0)); got != want {
				t.Errorf("%s: counter = %d, want %d", name, got, want)
			}
			// The lock word's releases are plain stores (cachable); only the
			// RMW path is uncached — the atomics must have run at the module.
			var uncached uint64
			for _, u := range s.LSUs {
				uncached += u.Stats.Counter("uncached_rmws").Value()
			}
			if uncached == 0 {
				t.Errorf("%s: no uncached RMWs performed", name)
			}
		}
	}
}
