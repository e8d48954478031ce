// Package cpu models the dynamically scheduled processor the paper builds
// on (§4.2, Figure 3): Johnson's design with a reorder buffer providing
// register renaming, speculative execution past unresolved conditional
// branches via a branch target buffer, and precise interrupts through
// in-order retirement. Memory instructions are dispatched to the load/store
// unit of internal/core, which enforces the consistency model and
// implements the paper's two techniques.
//
// The model is architectural, not structural: reservation stations are
// folded into the reorder-buffer entries, which is behaviourally
// equivalent and keeps the simulator deterministic and simple. As in
// Johnson's design, a waiting operand is captured when its producer
// delivers the result: the consumer sits on the producer's waiter list
// until then, and the delivery moves it to the processor's ready list,
// the only entries the execute stage visits.
package cpu

import (
	"fmt"

	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/stats"
)

// Config holds the pipeline parameters.
type Config struct {
	FetchWidth  int    // instructions decoded per cycle
	RetireWidth int    // maximum instructions retired per cycle
	ROBSize     int    // reorder-buffer entries
	ALULatency  uint64 // cycles from operands-ready to result (0 = same cycle)
	// BranchLatency is the delay from operands-ready to branch resolution
	// (0 = same cycle, which the paper's analytical examples assume).
	BranchLatency uint64
	// MispredictPenalty is the extra bubble after a branch misprediction
	// before fetch resumes (a 1-cycle bubble always exists because fetch
	// runs at the start of the cycle).
	MispredictPenalty uint64
	// RollbackPenalty is the extra bubble after a speculative-load squash.
	RollbackPenalty uint64
}

// PaperConfig reproduces the paper's abstract machine: instruction supply,
// ALU work and branch resolution are free, so memory access time dominates
// exactly as in the §3.3/§4.1 cycle counts.
func PaperConfig() Config {
	return Config{
		FetchWidth:  16,
		RetireWidth: 16,
		ROBSize:     64,
		ALULatency:  0,
	}
}

// RealisticConfig models a plausible early-90s superscalar: 4-wide, 32-entry
// reorder buffer, 1-cycle ALU and branch, short rollback bubbles.
func RealisticConfig() Config {
	return Config{
		FetchWidth:        4,
		RetireWidth:       4,
		ROBSize:           32,
		ALULatency:        1,
		BranchLatency:     1,
		MispredictPenalty: 2,
		RollbackPenalty:   2,
	}
}

// operand is one source of an instruction: either an immediate/committed
// value or a reference to an in-flight producer. The reference names the
// producer's ROB id and the pooled entry (slot) that held it at decode; it
// counts only while that slot is live with the same id (see producerAt).
type operand struct {
	value    int64
	producer uint64    // ROB id, when !ready
	slot     *robEntry // the producer's entry at decode, when !ready
	reg      isa.Reg
	ready    bool
}

// names reports whether o still refers to producer e for its value.
func (o *operand) names(e *robEntry) bool {
	return !o.ready && o.slot == e && o.producer == e.id
}

// robEntry is one reorder-buffer entry. The pointer and word fields come
// first and the flags last, so the entry packs without padding holes.
type robEntry struct {
	id    uint64
	pc    int
	instr isa.Instruction

	// src and src2 are the ALU/branch sources; a memory instruction's base
	// address is src and its store (or RMW) data src2.
	src, src2 operand

	execAt     uint64
	value      int64 // result (ALU, or load value delivered by the LSU)
	predTarget int

	// waiters heads the list of entries with an operand waiting for this
	// entry's result, and waitNext[k] continues the list this entry's
	// operand k waits on (see linkOf). readyNext links the ready list.
	waiters   *robEntry
	waitNext  [2]*robEntry
	readyNext *robEntry
	nextFree  *robEntry // pool link while the entry is not live

	live     bool // in the reorder buffer (false once back in the pool)
	isMem    bool
	executed bool // ALU computed / branch resolved
	execSet  bool
	complete bool // memory access performed

	baseSent bool // base operand pushed to the LSU
	dataSent bool // store-data operand pushed to the LSU

	storeSignaled bool // StoreAtHead issued
	predTaken     bool
	onReady       bool // on the ready list
}

type ratEntry struct {
	producer uint64
	slot     *robEntry
	valid    bool
}

// Proc is one simulated processor core.
type Proc struct {
	ID   int
	cfg  Config
	prog *isa.Program
	lsu  *core.LSU

	// rob holds the in-flight entries in program order (head first); their
	// ids strictly ascend. Retired and squashed entries go back to a free
	// list (linked through the entries), so at most ROBSize entries are ever
	// allocated, and only as many as the buffer actually filled.
	rob    []*robEntry
	free   *robEntry
	nextID uint64

	// ready lists, in ascending id order, the live entries TickExecute
	// has work for: an ALU op or branch whose operands have all arrived
	// and that has not executed, or a memory instruction with an operand
	// it can now push to the LSU. Every other entry that still needs an
	// operand is on the waiters list of that operand's producer, and the
	// producer's result moves it here (see wake).
	ready, readyTail *robEntry

	rat     [isa.NumRegs]ratEntry
	regfile [isa.NumRegs]int64

	pc            int
	fetchResumeAt uint64
	haltFetched   bool
	halted        bool

	// predictor holds the 2-bit counters of the branches fetched so far,
	// ascending by pc (searched, not hashed); a new branch starts weakly
	// not-taken.
	predictor []PredictorState

	// HaltCycle records when the processor halted (all work drained).
	HaltCycle uint64

	Stats *stats.Set
	// Counters bumped per instruction, resolved once.
	decoded, retired, branchesCorrect, branchesMispredicted stats.CounterRef
}

// New creates a processor bound to a program and a load/store unit. It
// registers itself as the LSU's CPU callback.
func New(id int, cfg Config, prog *isa.Program, lsu *core.LSU) *Proc {
	if cfg.FetchWidth <= 0 || cfg.RetireWidth <= 0 || cfg.ROBSize <= 0 {
		panic("cpu: widths and ROB size must be positive")
	}
	p := &Proc{
		ID:    id,
		cfg:   cfg,
		prog:  prog,
		lsu:   lsu,
		Stats: stats.NewSet(fmt.Sprintf("cpu%d", id)),
	}
	p.decoded = p.Stats.Ref("decoded")
	p.retired = p.Stats.Ref("retired")
	p.branchesCorrect = p.Stats.Ref("branches_correct")
	p.branchesMispredicted = p.Stats.Ref("branches_mispredicted")
	lsu.SetCPU(p)
	return p
}

// Halted reports whether the processor has retired its halt instruction and
// drained the load/store unit.
func (p *Proc) Halted() bool { return p.halted }

// Reg returns the committed architectural value of a register, for tests
// and examples inspecting final state.
func (p *Proc) Reg(r isa.Reg) int64 { return p.regfile[r] }

// ROBLen reports the current reorder-buffer occupancy.
func (p *Proc) ROBLen() int { return len(p.rob) }

// producerAt returns the in-flight producer a reference names, or nil once
// it has retired: a retired entry's slot is back in the pool (not live) or
// holds a younger instruction (ids are never reused). A squashed producer
// is never asked about, since everything decoded after it is squashed too.
func producerAt(slot *robEntry, id uint64) *robEntry {
	if slot != nil && slot.live && slot.id == id {
		return slot
	}
	return nil
}

// readReg resolves a register read at decode time against the renaming
// state: a committed value, or a reference to the in-flight producer.
func (p *Proc) readReg(r isa.Reg) operand {
	if r == isa.R0 {
		return operand{ready: true, reg: r}
	}
	if re := p.rat[r]; re.valid {
		if e := producerAt(re.slot, re.producer); e != nil {
			if v, ok := producerValue(e); ok {
				return operand{ready: true, value: v, reg: r}
			}
			return operand{producer: re.producer, slot: e, reg: r}
		}
		// Producer already committed; the architectural register holds it.
	}
	return operand{ready: true, value: p.regfile[r], reg: r}
}

// producerValue returns the result of a producer entry if available.
func producerValue(e *robEntry) (int64, bool) {
	if e.isMem {
		if e.complete {
			return e.value, true
		}
		return 0, false
	}
	if e.executed {
		return e.value, true
	}
	return 0, false
}

// resolve captures an operand's value once its producer has delivered it
// (or retired), caching it in the operand.
func (p *Proc) resolve(o *operand) bool {
	if o.ready {
		return true
	}
	e := producerAt(o.slot, o.producer)
	if e == nil {
		// Producer retired after we recorded the reference; in-order
		// retirement guarantees the architectural register still holds its
		// value (no intervening writer can have committed).
		o.value = p.regfile[o.reg]
		o.ready = true
		return true
	}
	if v, ok := producerValue(e); ok {
		o.value = v
		o.ready = true
		return true
	}
	return false
}

// entry returns the in-flight entry with ROB id, or nil. Ids ascend through
// the buffer one by one except where a squash skipped some, so an offset
// from the head or from the tail finds the entry directly unless squash
// gaps lie on both sides of it; a binary search covers that case.
func (p *Proc) entry(id uint64) *robEntry {
	n := len(p.rob)
	if n == 0 || id < p.rob[0].id || id > p.rob[n-1].id {
		return nil
	}
	if off := id - p.rob[0].id; off < uint64(n) && p.rob[off].id == id {
		return p.rob[off]
	}
	if off := p.rob[n-1].id - id; off < uint64(n) && p.rob[n-1-int(off)].id == id {
		return p.rob[n-1-int(off)]
	}
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.rob[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n && p.rob[lo].id == id {
		return p.rob[lo]
	}
	return nil
}

// newEntry takes an entry from the free list (allocating only while the
// buffer grows past its largest occupancy so far) and resets it in place:
// every field a decoded entry reads before writing it. The list links are
// always written before they are read, so they keep their stale values.
func (p *Proc) newEntry(id uint64, pc int, in isa.Instruction) *robEntry {
	e := p.free
	if e != nil {
		p.free = e.nextFree
	} else {
		e = new(robEntry)
	}
	e.id, e.pc, e.instr, e.live = id, pc, in, true
	e.src, e.src2 = operand{}, operand{}
	e.execAt, e.value, e.predTarget = 0, 0, 0
	e.waiters = nil
	e.isMem, e.executed, e.execSet, e.complete = false, false, false, false
	e.baseSent, e.dataSent, e.storeSignaled = false, false, false
	e.predTaken, e.onReady = false, false
	return e
}

// release puts entries that left the buffer on the free list. They stay
// intact until reused, but no longer count as producers.
func (p *Proc) release(es []*robEntry) {
	for _, e := range es {
		e.live = false
		e.nextFree = p.free
		p.free = e
	}
}

// ROBSnapshot renders the reorder buffer head-first: one mnemonic per
// entry, for trace output (Figure 5 shows the reorder buffer's contents at
// each event).
func (p *Proc) ROBSnapshot() []string {
	out := make([]string, 0, len(p.rob))
	for _, e := range p.rob {
		out = append(out, e.instr.String())
	}
	return out
}

// DebugHead reports the reorder-buffer head's id, mnemonic and whether it
// is currently retirable (diagnostic aid).
func (p *Proc) DebugHead() (uint64, string, bool) {
	if len(p.rob) == 0 {
		return 0, "", false
	}
	e := p.rob[0]
	return e.id, e.instr.String(), p.canRetire(e)
}
