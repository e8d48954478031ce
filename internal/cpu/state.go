package cpu

import (
	"fmt"
	"slices"

	"mcmsim/internal/isa"
	"mcmsim/internal/stats"
)

// PredictorState is one trained branch-predictor entry (pc -> 2-bit
// counter), listed in ascending pc order for deterministic encoding.
type PredictorState struct {
	PC      int
	Counter uint8
}

// OperandState mirrors one instruction source operand. Producer references
// are ROB ids; a reference to an already-committed producer is kept as-is,
// since operand resolution falls back to the architectural register file
// exactly as the live pipeline would.
type OperandState struct {
	Ready    bool
	Value    int64
	Producer uint64
	Reg      isa.Reg
}

// ROBEntryState mirrors one reorder-buffer entry. The instruction itself is
// not stored: it is re-derived from the program via the recorded fetch PC.
type ROBEntryState struct {
	ID        uint64
	PC        int
	Src, Src2 OperandState

	IsMem    bool
	Executed bool
	ExecAt   uint64
	ExecSet  bool
	Value    int64
	Complete bool

	BaseSent bool
	DataSent bool

	StoreSignaled bool
	PredTaken     bool
	PredTarget    int
}

// State is the serializable processor state, mid-flight included: the
// architectural registers, the fetch/halt bookkeeping, the instruction-ID
// counter (ROB ids persist across program phases and tag the LSU's
// entries), the reorder buffer in program order, the trained predictor, and
// the statistics. The register-alias table needs no capture: it is rebuilt
// from the surviving entries, and a rebuilt table is behaviourally
// identical — a RAT entry whose producer has committed is treated as
// invalid by operand lookup (readReg falls back to the architectural
// register file), and committed producer ids are never reused.
type State struct {
	PC            int
	FetchResumeAt uint64
	HaltFetched   bool
	Halted        bool
	HaltCycle     uint64
	NextID        uint64
	Regfile       []int64
	ROB           []ROBEntryState // program order (head first); empty at quiescence
	Predictor     []PredictorState
	Stats         stats.State
}

func exportOperand(o operand) OperandState {
	return OperandState{Ready: o.ready, Value: o.value, Producer: o.producer, Reg: o.reg}
}

func restoreOperand(o OperandState) operand {
	return operand{ready: o.Ready, value: o.Value, producer: o.Producer, reg: o.Reg}
}

// Program returns the program the processor is bound to (captured by the
// machine snapshot so a restored system can rebuild the processor).
func (p *Proc) Program() *isa.Program { return p.prog }

// ExportState captures the processor state, in-flight instructions
// included.
func (p *Proc) ExportState() State {
	st := State{
		PC:            p.pc,
		FetchResumeAt: p.fetchResumeAt,
		HaltFetched:   p.haltFetched,
		Halted:        p.halted,
		HaltCycle:     p.HaltCycle,
		NextID:        p.nextID,
		Regfile:       slices.Clone(p.regfile[:]),
		Predictor:     slices.Clone(p.predictor),
		Stats:         p.Stats.ExportState(),
	}
	for _, e := range p.rob {
		st.ROB = append(st.ROB, ROBEntryState{
			ID: e.id, PC: e.pc,
			Src: exportOperand(e.src), Src2: exportOperand(e.src2),
			IsMem: e.isMem, Executed: e.executed,
			ExecAt: e.execAt, ExecSet: e.execSet,
			Value: e.value, Complete: e.complete,
			BaseSent: e.baseSent, DataSent: e.dataSent,
			StoreSignaled: e.storeSignaled,
			PredTaken:     e.predTaken, PredTarget: e.predTarget,
		})
	}
	return st
}

// RestoreState replaces the processor's entire state — architectural
// registers, reorder buffer, renaming table, predictor and statistics —
// with the exported one; any in-flight instructions the processor held are
// discarded. The state is validated first, since a snapshot may arrive
// from the network: the reorder buffer must fit ROBSize and hold strictly
// ascending ids below NextID (the tag lookup relies on the order), and
// every entry must name an instruction of the program with in-range
// operand registers.
func (p *Proc) RestoreState(st State) error {
	if err := p.validateState(&st); err != nil {
		return err
	}
	p.pc = st.PC
	p.fetchResumeAt = st.FetchResumeAt
	p.haltFetched = st.HaltFetched
	p.halted = st.Halted
	p.HaltCycle = st.HaltCycle
	p.nextID = st.NextID
	copy(p.regfile[:], st.Regfile)
	// The discarded entries go back to the pool and are refilled in place.
	p.release(p.rob)
	p.rob = p.rob[:0]
	for _, es := range st.ROB {
		e := p.newEntry(es.ID, es.PC, p.prog.At(es.PC))
		e.src, e.src2 = restoreOperand(es.Src), restoreOperand(es.Src2)
		e.isMem, e.executed = es.IsMem, es.Executed
		e.execAt, e.execSet = es.ExecAt, es.ExecSet
		e.value, e.complete = es.Value, es.Complete
		e.baseSent, e.dataSent = es.BaseSent, es.DataSent
		e.storeSignaled = es.StoreSignaled
		e.predTaken, e.predTarget = es.PredTaken, es.PredTarget
		p.rob = append(p.rob, e)
	}
	// Operand references bind to the producer's slot by id; a producer that
	// is no longer in flight has committed, and the reference falls back to
	// the register file exactly as it would have live. Only an older entry
	// can be a producer, which is what lets one ascending pass find every
	// consumer its producer woke.
	for _, e := range p.rob {
		for _, o := range [2]*operand{&e.src, &e.src2} {
			if !o.ready && o.producer < e.id {
				o.slot = p.entry(o.producer)
			}
		}
	}
	// Rebuild the renaming table and the operand lists from the survivors;
	// behaviourally identical to the live ones (see the State doc comment).
	p.rebuild()
	p.predictor = append(p.predictor[:0], st.Predictor...)
	return p.Stats.RestoreState(st.Stats)
}

func (p *Proc) validateState(st *State) error {
	if len(st.Regfile) != int(isa.NumRegs) {
		return fmt.Errorf("cpu %d: snapshot has %d registers, machine has %d", p.ID, len(st.Regfile), isa.NumRegs)
	}
	if len(st.ROB) > p.cfg.ROBSize {
		return fmt.Errorf("cpu %d: snapshot holds %d reorder-buffer entries, ROBSize is %d", p.ID, len(st.ROB), p.cfg.ROBSize)
	}
	for i, es := range st.ROB {
		if es.ID >= st.NextID || (i > 0 && es.ID <= st.ROB[i-1].ID) {
			return fmt.Errorf("cpu %d: snapshot entry %d out of order (ids must ascend below NextID %d)", p.ID, es.ID, st.NextID)
		}
		if es.PC < 0 || es.PC >= p.prog.Len() {
			return fmt.Errorf("cpu %d: snapshot entry %d fetched from pc %d, program has %d instructions", p.ID, es.ID, es.PC, p.prog.Len())
		}
		if es.IsMem != p.prog.At(es.PC).IsMemory() {
			return fmt.Errorf("cpu %d: snapshot entry %d disagrees with its instruction on memory access", p.ID, es.ID)
		}
		if es.Src.Reg >= isa.NumRegs || es.Src2.Reg >= isa.NumRegs {
			return fmt.Errorf("cpu %d: snapshot entry %d names a register out of range", p.ID, es.ID)
		}
	}
	for i := 1; i < len(st.Predictor); i++ {
		if st.Predictor[i].PC <= st.Predictor[i-1].PC {
			return fmt.Errorf("cpu %d: snapshot predictor not in ascending pc order at pc %d", p.ID, st.Predictor[i].PC)
		}
	}
	return nil
}
