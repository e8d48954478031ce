package isa

import (
	"fmt"
	"slices"
)

// Builder constructs Programs with forward-label resolution. All emit
// methods return the Builder so calls can be chained.
//
//	b := isa.NewBuilder()
//	b.Lock(isa.R1, lockAddr)
//	b.StoreAbs(valueA, isa.R2)
//	b.Unlock(lockAddr)
//	b.Halt()
//	prog := b.Build()
type Builder struct {
	instrs  []Instruction
	labels  map[string]int
	fixups  map[string][]int // label -> instruction indices needing Imm patch
	nextLbl int
}

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder {
	return &Builder{
		labels: make(map[string]int),
		fixups: make(map[string][]int),
	}
}

// Len returns the number of instructions emitted so far (== the PC of the
// next instruction).
func (b *Builder) Len() int { return len(b.instrs) }

// Grow reserves room for n more instructions, so a generator that knows
// its program's size emits it without re-growing the builder (as
// strings.Builder.Grow does for bytes).
func (b *Builder) Grow(n int) { b.instrs = slices.Grow(b.instrs, n) }

// Emit appends a raw instruction.
func (b *Builder) Emit(in Instruction) *Builder {
	b.instrs = append(b.instrs, in)
	return b
}

// Label defines a symbolic label at the current position.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		panic(fmt.Sprintf("isa: duplicate label %q", name))
	}
	b.labels[name] = len(b.instrs)
	return b
}

// FreshLabel returns a unique label name (not yet bound).
func (b *Builder) FreshLabel(prefix string) string {
	b.nextLbl++
	return fmt.Sprintf("%s_%d", prefix, b.nextLbl)
}

// Nop emits a no-op.
func (b *Builder) Nop() *Builder { return b.Emit(Instruction{Op: OpNop}) }

// Load emits dst = mem[base+off].
func (b *Builder) Load(dst, base Reg, off int64) *Builder {
	return b.Emit(Instruction{Op: OpLoad, Dst: dst, Base: base, Imm: off})
}

// LoadAbs emits dst = mem[addr] using R0 as the base register, so the
// effective address is available at decode with no register dependence.
func (b *Builder) LoadAbs(dst Reg, addr int64) *Builder {
	return b.Load(dst, R0, addr)
}

// Store emits mem[base+off] = src.
func (b *Builder) Store(src, base Reg, off int64) *Builder {
	return b.Emit(Instruction{Op: OpStore, Src: src, Base: base, Imm: off})
}

// StoreAbs emits mem[addr] = src with an immediate address.
func (b *Builder) StoreAbs(src Reg, addr int64) *Builder {
	return b.Store(src, R0, addr)
}

// AcquireLoad emits a synchronization read (e.g. spinning on a flag).
func (b *Builder) AcquireLoad(dst, base Reg, off int64) *Builder {
	return b.Emit(Instruction{Op: OpAcquire, Dst: dst, Base: base, Imm: off})
}

// AcquireLoadAbs emits a synchronization read of an absolute address.
func (b *Builder) AcquireLoadAbs(dst Reg, addr int64) *Builder {
	return b.AcquireLoad(dst, R0, addr)
}

// ReleaseStore emits a synchronization write (e.g. setting a flag).
func (b *Builder) ReleaseStore(src, base Reg, off int64) *Builder {
	return b.Emit(Instruction{Op: OpRelease, Src: src, Base: base, Imm: off})
}

// ReleaseStoreAbs emits a synchronization write to an absolute address.
func (b *Builder) ReleaseStoreAbs(src Reg, addr int64) *Builder {
	return b.ReleaseStore(src, R0, addr)
}

// Prefetch emits a software non-binding read prefetch of mem[base+off].
func (b *Builder) Prefetch(base Reg, off int64) *Builder {
	return b.Emit(Instruction{Op: OpPrefetch, Base: base, Imm: off})
}

// PrefetchAbs emits a software read prefetch of an absolute address.
func (b *Builder) PrefetchAbs(addr int64) *Builder { return b.Prefetch(R0, addr) }

// PrefetchEx emits a software read-exclusive prefetch of mem[base+off].
func (b *Builder) PrefetchEx(base Reg, off int64) *Builder {
	return b.Emit(Instruction{Op: OpPrefetchEx, Base: base, Imm: off})
}

// PrefetchExAbs emits a software read-exclusive prefetch of an absolute
// address.
func (b *Builder) PrefetchExAbs(addr int64) *Builder { return b.PrefetchEx(R0, addr) }

// RMW emits dst = atomic(kind, mem[base+off], src).
func (b *Builder) RMW(kind RMWKind, dst, src, base Reg, off int64) *Builder {
	return b.Emit(Instruction{Op: OpRMW, RMW: kind, Dst: dst, Src: src, Base: base, Imm: off})
}

// Add emits dst = src + src2.
func (b *Builder) Add(dst, src, src2 Reg) *Builder {
	return b.Emit(Instruction{Op: OpAdd, Dst: dst, Src: src, Src2: src2})
}

// AddI emits dst = src + imm.
func (b *Builder) AddI(dst, src Reg, imm int64) *Builder {
	return b.Emit(Instruction{Op: OpAddI, Dst: dst, Src: src, Imm: imm})
}

// Li emits dst = imm (encoded as addi dst, r0, imm).
func (b *Builder) Li(dst Reg, imm int64) *Builder { return b.AddI(dst, R0, imm) }

// Sub emits dst = src - src2.
func (b *Builder) Sub(dst, src, src2 Reg) *Builder {
	return b.Emit(Instruction{Op: OpSub, Dst: dst, Src: src, Src2: src2})
}

// Mul emits dst = src * src2.
func (b *Builder) Mul(dst, src, src2 Reg) *Builder {
	return b.Emit(Instruction{Op: OpMul, Dst: dst, Src: src, Src2: src2})
}

// And emits dst = src & src2.
func (b *Builder) And(dst, src, src2 Reg) *Builder {
	return b.Emit(Instruction{Op: OpAnd, Dst: dst, Src: src, Src2: src2})
}

// Or emits dst = src | src2.
func (b *Builder) Or(dst, src, src2 Reg) *Builder {
	return b.Emit(Instruction{Op: OpOr, Dst: dst, Src: src, Src2: src2})
}

// Xor emits dst = src ^ src2.
func (b *Builder) Xor(dst, src, src2 Reg) *Builder {
	return b.Emit(Instruction{Op: OpXor, Dst: dst, Src: src, Src2: src2})
}

// Slt emits dst = (src < src2) ? 1 : 0.
func (b *Builder) Slt(dst, src, src2 Reg) *Builder {
	return b.Emit(Instruction{Op: OpSlt, Dst: dst, Src: src, Src2: src2})
}

// SltI emits dst = (src < imm) ? 1 : 0.
func (b *Builder) SltI(dst, src Reg, imm int64) *Builder {
	return b.Emit(Instruction{Op: OpSltI, Dst: dst, Src: src, Imm: imm})
}

// Beqz emits a branch to label when src == 0.
func (b *Builder) Beqz(src Reg, label string) *Builder {
	b.fixup(label)
	return b.Emit(Instruction{Op: OpBeqz, Src: src, Imm: b.resolve(label)})
}

// Bnez emits a branch to label when src != 0.
func (b *Builder) Bnez(src Reg, label string) *Builder {
	b.fixup(label)
	return b.Emit(Instruction{Op: OpBnez, Src: src, Imm: b.resolve(label)})
}

// Jmp emits an unconditional jump to label.
func (b *Builder) Jmp(label string) *Builder {
	b.fixup(label)
	return b.Emit(Instruction{Op: OpJmp, Imm: b.resolve(label)})
}

// Halt emits a halt.
func (b *Builder) Halt() *Builder { return b.Emit(Instruction{Op: OpHalt}) }

// Lock emits the canonical test-and-set spin lock acquire:
//
//	spin: rmw.tas tmp, r0, addr
//	      bnez    tmp, spin
//
// The RMW has acquire semantics. When the lock is free the branch falls
// through, which is the path the branch predictor assumes (the paper's
// examples assume the lock succeeds).
func (b *Builder) Lock(tmp Reg, addr int64) *Builder {
	spin := b.FreshLabel("spin")
	b.Label(spin)
	b.RMW(RMWTestAndSet, tmp, R0, R0, addr)
	b.Bnez(tmp, spin)
	return b
}

// Unlock emits the release store that frees a test-and-set lock.
func (b *Builder) Unlock(addr int64) *Builder {
	return b.ReleaseStoreAbs(R0, addr)
}

// Build resolves all labels and returns the finished Program. It panics on
// undefined labels, which indicates a bug in the workload generator.
func (b *Builder) Build() *Program {
	for label, sites := range b.fixups {
		target, ok := b.labels[label]
		if !ok {
			panic(fmt.Sprintf("isa: undefined label %q", label))
		}
		for _, site := range sites {
			b.instrs[site].Imm = int64(target)
		}
	}
	labels := make(map[string]int, len(b.labels))
	for k, v := range b.labels {
		labels[k] = v
	}
	instrs := make([]Instruction, len(b.instrs))
	copy(instrs, b.instrs)
	return &Program{Instrs: instrs, Labels: labels}
}

// resolve returns the label target if already bound, else 0 (patched later).
func (b *Builder) resolve(label string) int64 {
	if t, ok := b.labels[label]; ok {
		return int64(t)
	}
	return 0
}

// fixup records that the next emitted instruction's Imm must be patched to
// the label target at Build time (covers forward references; backward
// references are patched too for uniformity).
func (b *Builder) fixup(label string) {
	b.fixups[label] = append(b.fixups[label], len(b.instrs))
}
