package sim_test

import (
	"fmt"
	"log"

	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/sim"
	"mcmsim/internal/workload"
)

// ExampleRunProgram runs the paper's Example 1 (lock; write A; write B;
// unlock) on the abstract paper machine under sequential consistency,
// conventionally and with both techniques — reproducing the §3.3/§4.1
// headline: 301 cycles collapse to 103.
func ExampleRunProgram() {
	for _, tech := range []core.Technique{
		{}, // conventional: every delayed access serializes
		{Prefetch: true, SpecLoad: true, ReissueOpt: true}, // §3 + §4
	} {
		cfg := sim.PaperConfig()
		cfg.Model = core.SC
		cfg.Tech = tech

		cycles, err := sim.RunProgram(cfg, []*isa.Program{workload.Example1()})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("SC %-8v: %d cycles\n", tech, cycles)
	}
	// Output:
	// SC conv    : 301 cycles
	// SC pf+spec : 103 cycles
}

// ExampleSystem builds a two-processor machine by hand and runs a litmus
// program: processor 0 publishes data behind a release flag, processor 1
// spins with acquire loads and copies the data out. The architecturally
// visible result is read back through the coherent snapshot.
func ExampleSystem() {
	prod := isa.NewBuilder()
	prod.Li(isa.R1, 42)
	prod.StoreAbs(isa.R1, 0x200) // data = 42
	prod.Li(isa.R2, 1)
	prod.ReleaseStoreAbs(isa.R2, 0x100) // flag = 1 (release)
	prod.Halt()

	cons := isa.NewBuilder()
	cons.Label("spin")
	cons.AcquireLoadAbs(isa.R3, 0x100) // flag (acquire)
	cons.Beqz(isa.R3, "spin")
	cons.LoadAbs(isa.R4, 0x200)  // data
	cons.StoreAbs(isa.R4, 0x300) // result = data
	cons.Halt()

	cfg := sim.RealisticConfig()
	cfg.Procs = 2
	cfg.Model = core.RC
	cfg.Tech = core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}

	s := sim.New(cfg, []*isa.Program{prod.Build(), cons.Build()})
	if _, err := s.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("result:", s.ReadCoherent(0x300))
	// Output:
	// result: 42
}

// ExampleConfig_ResolveScaled assembles a 16-CPU mesh multiprocessor and
// runs a machine-wide sharing workload under release consistency with both
// latency-hiding techniques. ResolveScaled picks the scale-appropriate
// structure: a 4x4 mesh, one home memory module per tile, and a
// limited-pointer directory.
func ExampleConfig_ResolveScaled() {
	cfg := sim.RealisticConfig()
	cfg.Procs, cfg.Topo = 16, "mesh"
	cfg.Model = core.RC
	cfg.Tech = core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}
	cfg, err := cfg.ResolveScaled()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology=%s homes=%d dirptrs=%d\n", cfg.Topo, cfg.MemModules, cfg.DirPointers)

	progs := make([]*isa.Program, cfg.Procs)
	for p := range progs {
		progs[p] = workload.WideSharing(p, cfg.Procs, 4, 2)
	}
	cycles, err := sim.RunProgram(cfg, progs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("halted after %d cycles\n", cycles)
	// Output:
	// topology=mesh:4x4 homes=16 dirptrs=8
	// halted after 438 cycles
}
