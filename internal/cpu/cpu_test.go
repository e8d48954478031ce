package cpu_test

import (
	"testing"

	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/sim"
)

// run executes one single-processor program on the paper machine and
// returns the system and halt cycle.
func run(t *testing.T, build func(b *isa.Builder)) (*sim.System, uint64) {
	t.Helper()
	b := isa.NewBuilder()
	build(b)
	b.Halt()
	cfg := sim.PaperConfig()
	s := sim.New(cfg, []*isa.Program{b.Build()})
	cycles, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return s, cycles
}

func TestALUOperations(t *testing.T) {
	s, _ := run(t, func(b *isa.Builder) {
		b.Li(isa.R1, 6)
		b.Li(isa.R2, 7)
		b.Add(isa.R3, isa.R1, isa.R2) // 13
		b.Sub(isa.R4, isa.R2, isa.R1) // 1
		b.Mul(isa.R5, isa.R1, isa.R2) // 42
		b.And(isa.R6, isa.R1, isa.R2) // 6
		b.Or(isa.R7, isa.R1, isa.R2)  // 7
		b.Xor(isa.R8, isa.R1, isa.R2) // 1
		b.Slt(isa.R9, isa.R1, isa.R2) // 1
		b.SltI(isa.R10, isa.R2, 3)    // 0
		b.AddI(isa.R11, isa.R3, 100)  // 113
	})
	p := s.Procs[0]
	want := map[isa.Reg]int64{
		isa.R3: 13, isa.R4: 1, isa.R5: 42, isa.R6: 6, isa.R7: 7,
		isa.R8: 1, isa.R9: 1, isa.R10: 0, isa.R11: 113,
	}
	for r, w := range want {
		if got := p.Reg(r); got != w {
			t.Errorf("r%d = %d, want %d", r, got, w)
		}
	}
}

func TestR0IsHardwiredZero(t *testing.T) {
	s, _ := run(t, func(b *isa.Builder) {
		b.AddI(isa.R0, isa.R0, 99) // write to R0 discarded
		b.Add(isa.R1, isa.R0, isa.R0)
	})
	if s.Procs[0].Reg(isa.R0) != 0 || s.Procs[0].Reg(isa.R1) != 0 {
		t.Error("R0 must stay zero")
	}
}

func TestCountedLoopExecutes(t *testing.T) {
	s, _ := run(t, func(b *isa.Builder) {
		b.Li(isa.R1, 10) // counter
		b.Li(isa.R2, 0)  // accumulator
		b.Label("loop")
		b.AddI(isa.R2, isa.R2, 3)
		b.AddI(isa.R1, isa.R1, -1)
		b.Bnez(isa.R1, "loop")
	})
	if got := s.Procs[0].Reg(isa.R2); got != 30 {
		t.Errorf("loop accumulated %d, want 30", got)
	}
}

func TestBranchPredictorLearnsLoop(t *testing.T) {
	s, _ := run(t, func(b *isa.Builder) {
		b.Li(isa.R1, 50)
		b.Label("loop")
		b.AddI(isa.R1, isa.R1, -1)
		b.Bnez(isa.R1, "loop")
	})
	st := s.Procs[0].Stats
	correct := st.Counter("branches_correct").Value()
	wrong := st.Counter("branches_mispredicted").Value()
	if correct+wrong != 50 {
		t.Fatalf("resolved %d branches, want 50", correct+wrong)
	}
	// The 2-bit counter should mispredict only the first iterations and the
	// final exit — a handful, not dozens.
	if wrong > 5 {
		t.Errorf("predictor mispredicted %d of 50 loop branches", wrong)
	}
}

func TestMispredictSquashesWrongPathStore(t *testing.T) {
	// The not-taken path (predicted at first encounter) stores to 0x500;
	// the branch is actually taken, so that store must never happen.
	s, _ := run(t, func(b *isa.Builder) {
		b.Li(isa.R1, 1)
		b.Bnez(isa.R1, "taken")
		b.Li(isa.R2, 99)
		b.StoreAbs(isa.R2, 0x500) // wrong path
		b.Label("taken")
		b.Li(isa.R3, 42)
		b.StoreAbs(isa.R3, 0x600)
	})
	if got := s.ReadCoherent(0x500); got != 0 {
		t.Errorf("wrong-path store escaped to memory: %d", got)
	}
	if got := s.ReadCoherent(0x600); got != 42 {
		t.Errorf("taken-path store missing: %d", got)
	}
}

func TestJumpRedirectsFetch(t *testing.T) {
	s, _ := run(t, func(b *isa.Builder) {
		b.Jmp("over")
		b.Li(isa.R1, 111) // skipped
		b.Label("over")
		b.Li(isa.R2, 222)
	})
	if s.Procs[0].Reg(isa.R1) != 0 || s.Procs[0].Reg(isa.R2) != 222 {
		t.Error("jump did not skip the intermediate instruction")
	}
}

func TestLoadUseDependency(t *testing.T) {
	// A load's value feeds an ALU op and then an address: the classic
	// pointer-chase must produce the right result.
	cfg := sim.PaperConfig()
	b := isa.NewBuilder()
	b.LoadAbs(isa.R1, 0x100)      // = 5
	b.AddI(isa.R2, isa.R1, 1)     // 6
	b.Load(isa.R3, isa.R2, 0x200) // mem[0x206] = 77
	b.StoreAbs(isa.R3, 0x300)
	b.Halt()
	s := sim.New(cfg, []*isa.Program{b.Build()})
	s.Preload(map[uint64]int64{0x100: 5, 0x206: 77})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.ReadCoherent(0x300); got != 77 {
		t.Errorf("dependent chain result = %d, want 77", got)
	}
}

func TestRegisterRenamingWAW(t *testing.T) {
	// Two writes to the same register with an interleaved reader: the
	// reader must see the first value, the final state the second.
	cfg := sim.PaperConfig()
	b := isa.NewBuilder()
	b.LoadAbs(isa.R1, 0x100)  // slow miss = 10
	b.AddI(isa.R2, isa.R1, 0) // reads first R1
	b.Li(isa.R1, 5)           // overwrites R1 quickly
	b.StoreAbs(isa.R2, 0x300)
	b.StoreAbs(isa.R1, 0x310)
	b.Halt()
	s := sim.New(cfg, []*isa.Program{b.Build()})
	s.Preload(map[uint64]int64{0x100: 10})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.ReadCoherent(0x300); got != 10 {
		t.Errorf("anti-dependent reader saw %d, want 10", got)
	}
	if got := s.ReadCoherent(0x310); got != 5 {
		t.Errorf("final R1 = %d, want 5", got)
	}
}

func TestROBSizeBoundsLookahead(t *testing.T) {
	// With ROB size 2, two long-latency loads cannot overlap even with
	// speculation (no room to hold both); with a large ROB they do.
	prog := func() *isa.Program {
		b := isa.NewBuilder()
		b.LoadAbs(isa.R1, 0x100)
		b.LoadAbs(isa.R2, 0x200)
		b.Halt()
		return b.Build()
	}
	cycles := func(robSize int) uint64 {
		cfg := sim.PaperConfig()
		cfg.CPU.ROBSize = robSize
		cfg.Tech = core.Technique{SpecLoad: true}
		c, err := sim.RunProgram(cfg, []*isa.Program{prog()})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	small, big := cycles(1), cycles(8)
	if big >= small {
		t.Errorf("bigger window not faster: rob1=%d rob8=%d", small, big)
	}
	if small < 200 {
		t.Errorf("rob=1 should serialize the two misses: %d cycles", small)
	}
	if big > 110 {
		t.Errorf("rob=8 should overlap the two misses: %d cycles", big)
	}
}

func TestHaltWaitsForDrain(t *testing.T) {
	// A store issued under RC retires from the ROB before completing; the
	// halt must still wait for it to perform.
	cfg := sim.PaperConfig()
	cfg.Model = core.RC
	b := isa.NewBuilder()
	b.Li(isa.R1, 9)
	b.StoreAbs(isa.R1, 0x100)
	b.Halt()
	s := sim.New(cfg, []*isa.Program{b.Build()})
	cycles, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cycles < 100 {
		t.Errorf("halt retired before the store performed: %d cycles", cycles)
	}
	if got := s.ReadCoherent(0x100); got != 9 {
		t.Errorf("store lost: %d", got)
	}
}

func TestROBSnapshotShowsPending(t *testing.T) {
	cfg := sim.PaperConfig()
	b := isa.NewBuilder()
	b.LoadAbs(isa.R1, 0x100)
	b.Halt()
	s := sim.New(cfg, []*isa.Program{b.Build()})
	s.Step()
	snap := s.Procs[0].ROBSnapshot()
	if len(snap) == 0 {
		t.Fatal("ROB empty after decode cycle")
	}
	if snap[0] == "" {
		t.Error("empty mnemonic")
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.Procs[0].ROBSnapshot()) != 0 {
		t.Error("ROB not empty after halt")
	}
}

// TestBranchWaitsOnlyForItsCondition checks that a conditional branch
// reads one register and nothing else: a mispredicted branch on r0 must
// resolve in its first cycle, not wait for the load ahead of it, so the
// program halts as soon as the load's 100-cycle miss retires.
func TestBranchWaitsOnlyForItsCondition(t *testing.T) {
	_, cycles := run(t, func(b *isa.Builder) {
		b.LoadAbs(isa.R1, 0x100)
		b.Beqz(isa.R0, "t") // predicted not taken, taken
		b.Li(isa.R2, 5)
		b.Label("t")
		b.Li(isa.R3, 7)
	})
	if cycles != 100 {
		t.Errorf("halted at cycle %d, want 100", cycles)
	}
}
