package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestInstructionClassification(t *testing.T) {
	cases := []struct {
		in                               isa
		mem, load, store, sync, br, wreg bool
	}{
		{isa{OpNop, R0}, false, false, false, false, false, false},
		{isa{OpLoad, R1}, true, true, false, false, false, true},
		{isa{OpStore, R1}, true, false, true, false, false, false},
		{isa{OpAcquire, R1}, true, true, false, true, false, true},
		{isa{OpRelease, R1}, true, false, true, true, false, false},
		{isa{OpRMW, R1}, true, false, false, true, false, true},
		{isa{OpAdd, R1}, false, false, false, false, false, true},
		{isa{OpBeqz, R1}, false, false, false, false, true, false},
		{isa{OpBnez, R1}, false, false, false, false, true, false},
		{isa{OpJmp, R1}, false, false, false, false, true, false},
		{isa{OpHalt, R1}, false, false, false, false, false, false},
	}
	for _, c := range cases {
		in := Instruction{Op: c.in.op, Dst: c.in.dst}
		if in.IsMemory() != c.mem {
			t.Errorf("%v IsMemory = %v", in.Op, in.IsMemory())
		}
		if in.IsLoad() != c.load {
			t.Errorf("%v IsLoad = %v", in.Op, in.IsLoad())
		}
		if in.IsStore() != c.store {
			t.Errorf("%v IsStore = %v", in.Op, in.IsStore())
		}
		if in.IsSync() != c.sync {
			t.Errorf("%v IsSync = %v", in.Op, in.IsSync())
		}
		if in.IsBranch() != c.br {
			t.Errorf("%v IsBranch = %v", in.Op, in.IsBranch())
		}
		if in.WritesReg() != c.wreg {
			t.Errorf("%v WritesReg = %v", in.Op, in.WritesReg())
		}
	}
}

type isa struct {
	op  Op
	dst Reg
}

func TestWritesRegR0Suppressed(t *testing.T) {
	in := Instruction{Op: OpLoad, Dst: R0}
	if in.WritesReg() {
		t.Error("write to R0 must not count as a register write")
	}
}

func TestRMWKindApply(t *testing.T) {
	cases := []struct {
		kind     RMWKind
		old, src int64
		want     int64
	}{
		{RMWTestAndSet, 0, 99, 1},
		{RMWTestAndSet, 1, 99, 1},
		{RMWFetchAdd, 10, 5, 15},
		{RMWFetchAdd, -3, 3, 0},
		{RMWSwap, 10, 42, 42},
	}
	for _, c := range cases {
		if got := c.kind.Apply(c.old, c.src); got != c.want {
			t.Errorf("%v.Apply(%d,%d) = %d, want %d", c.kind, c.old, c.src, got, c.want)
		}
	}
}

// TestRMWFetchAddCommutes property: fetch-add result is independent of
// operand order in its addition.
func TestRMWFetchAddCommutes(t *testing.T) {
	f := func(a, b int64) bool {
		return RMWFetchAdd.Apply(a, b) == RMWFetchAdd.Apply(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProgramAtOutOfRangeHalts(t *testing.T) {
	p := &Program{Instrs: []Instruction{{Op: OpNop}}}
	if p.At(-1).Op != OpHalt || p.At(5).Op != OpHalt {
		t.Error("out-of-range PC must decode as Halt")
	}
	if p.At(0).Op != OpNop {
		t.Error("in-range PC decoded wrong")
	}
}

func TestBuilderLabelsForwardAndBackward(t *testing.T) {
	b := NewBuilder()
	b.Label("start")
	b.Nop()               // 0
	b.Beqz(R1, "forward") // 1 -> 3
	b.Jmp("start")        // 2 -> 0
	b.Label("forward")
	b.Halt() // 3
	p := b.Build()
	if p.Instrs[1].Imm != 3 {
		t.Errorf("forward branch target = %d, want 3", p.Instrs[1].Imm)
	}
	if p.Instrs[2].Imm != 0 {
		t.Errorf("backward jump target = %d, want 0", p.Instrs[2].Imm)
	}
}

func TestBuilderUndefinedLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("undefined label must panic at Build")
		}
	}()
	b := NewBuilder()
	b.Jmp("nowhere")
	b.Build()
}

func TestBuilderDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate label must panic")
		}
	}()
	b := NewBuilder()
	b.Label("x")
	b.Label("x")
}

func TestBuilderLockUnlockShape(t *testing.T) {
	b := NewBuilder()
	b.Lock(R1, 0x100)
	b.Unlock(0x100)
	b.Halt()
	p := b.Build()
	if len(p.Instrs) != 4 {
		t.Fatalf("lock+unlock+halt = %d instrs, want 4", len(p.Instrs))
	}
	if p.Instrs[0].Op != OpRMW || p.Instrs[0].RMW != RMWTestAndSet {
		t.Error("lock must start with test-and-set")
	}
	if p.Instrs[1].Op != OpBnez || p.Instrs[1].Imm != 0 {
		t.Error("lock spin branch must loop back to the RMW")
	}
	if p.Instrs[2].Op != OpRelease {
		t.Error("unlock must be a release store")
	}
}

func TestBuilderFreshLabelsUnique(t *testing.T) {
	b := NewBuilder()
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		l := b.FreshLabel("spin")
		if seen[l] {
			t.Fatalf("duplicate fresh label %q", l)
		}
		seen[l] = true
	}
}

func TestDisassembleContainsLabels(t *testing.T) {
	b := NewBuilder()
	b.Label("entry")
	b.Li(R1, 42)
	b.Halt()
	out := b.Build().Disassemble()
	if !strings.Contains(out, "entry:") {
		t.Errorf("disassembly missing label:\n%s", out)
	}
	if !strings.Contains(out, "addi") {
		t.Errorf("disassembly missing instruction:\n%s", out)
	}
}

func TestInstructionStringsDistinct(t *testing.T) {
	ops := []Instruction{
		{Op: OpLoad, Dst: R1, Base: R2, Imm: 4},
		{Op: OpStore, Src: R1, Base: R2, Imm: 4},
		{Op: OpAcquire, Dst: R1},
		{Op: OpRelease, Src: R1},
		{Op: OpRMW, RMW: RMWTestAndSet},
		{Op: OpAdd}, {Op: OpAddI}, {Op: OpSub}, {Op: OpMul},
		{Op: OpAnd}, {Op: OpOr}, {Op: OpXor}, {Op: OpSlt}, {Op: OpSltI},
		{Op: OpBeqz}, {Op: OpBnez}, {Op: OpJmp}, {Op: OpHalt}, {Op: OpNop},
	}
	seen := map[string]Op{}
	for _, in := range ops {
		s := in.String()
		if prev, dup := seen[s]; dup {
			t.Errorf("ops %v and %v render identically as %q", prev, in.Op, s)
		}
		seen[s] = in.Op
	}
}

// TestBuilderEmitsAreImmutable property: Build returns a copy; later emits
// must not mutate a previously built program.
func TestBuilderBuildIsSnapshot(t *testing.T) {
	b := NewBuilder()
	b.Li(R1, 1)
	p1 := b.Build()
	b.Halt()
	p2 := b.Build()
	if p1.Len() != 1 || p2.Len() != 2 {
		t.Errorf("lens = %d/%d, want 1/2", p1.Len(), p2.Len())
	}
}

func TestPrefetchInstructions(t *testing.T) {
	b := NewBuilder()
	b.PrefetchAbs(0x40)
	b.PrefetchExAbs(0x50)
	b.Prefetch(R2, 8)
	b.PrefetchEx(R3, 16)
	b.Halt()
	p := b.Build()
	if p.Instrs[0].Op != OpPrefetch || p.Instrs[1].Op != OpPrefetchEx {
		t.Error("absolute prefetch opcodes wrong")
	}
	for i := 0; i < 4; i++ {
		in := p.Instrs[i]
		if !in.IsMemory() || !in.IsPrefetch() {
			t.Errorf("instr %d must classify as memory prefetch", i)
		}
		if in.IsLoad() || in.IsStore() || in.IsSync() || in.WritesReg() {
			t.Errorf("instr %d misclassified", i)
		}
	}
	if p.Instrs[0].String() == p.Instrs[1].String() {
		t.Error("pf and pf.x render identically")
	}
}

// TestBuilderGrow: Grow reserves room so the reserved emits never re-grow
// the builder, and it changes nothing about the program built.
func TestBuilderGrow(t *testing.T) {
	emit := func(b *Builder) {
		b.Label("top")
		for i := 0; i < 100; i++ {
			b.LoadAbs(R1, int64(i)).AddI(R2, R1, 1).StoreAbs(R2, int64(i))
		}
		b.Bnez(R2, "top").Halt()
	}
	plain, grown := NewBuilder(), NewBuilder()
	grown.Grow(302)
	reserved := cap(grown.instrs)
	emit(plain)
	emit(grown)
	if cap(grown.instrs) != reserved {
		t.Errorf("builder re-grew from %d to %d slots after Grow", reserved, cap(grown.instrs))
	}
	if a, b := plain.Build().Disassemble(), grown.Build().Disassemble(); a != b {
		t.Errorf("Grow changed the program:\n%s\nvs\n%s", a, b)
	}
}
