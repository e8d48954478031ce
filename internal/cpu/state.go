package cpu

import (
	"fmt"
	"sort"

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
func (p *Proc) ExportState() (State, error) {
	var st State
	if err := p.ExportStateInto(&st); err != nil {
		return State{}, err
	}
	return st, nil
}

// ExportStateInto captures the processor state into st, reusing st's
// backing storage (a speculative shard window checkpoints every dispatched
// shard).
func (p *Proc) ExportStateInto(st *State) error {
	st.PC = p.pc
	st.FetchResumeAt = p.fetchResumeAt
	st.HaltFetched = p.haltFetched
	st.Halted = p.halted
	st.HaltCycle = p.HaltCycle
	st.NextID = p.nextID
	if cap(st.Regfile) < int(isa.NumRegs) {
		st.Regfile = make([]int64, isa.NumRegs)
	}
	st.Regfile = st.Regfile[:isa.NumRegs]
	copy(st.Regfile, p.regfile[:])
	st.ROB = st.ROB[:0]
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
	st.Predictor = st.Predictor[:0]
	for pc, ctr := range p.predictor {
		st.Predictor = append(st.Predictor, PredictorState{PC: pc, Counter: ctr})
	}
	sort.Slice(st.Predictor, func(i, j int) bool { return st.Predictor[i].PC < st.Predictor[j].PC })
	p.Stats.ExportStateInto(&st.Stats)
	return nil
}

// RestoreState replaces the processor's entire state — architectural
// registers, reorder buffer, renaming table, predictor and statistics —
// with the exported one. Any in-flight instructions the processor held are
// discarded (the shard engine's rollback path).
func (p *Proc) RestoreState(st State) error {
	if len(st.Regfile) != int(isa.NumRegs) {
		return fmt.Errorf("cpu %d: snapshot has %d registers, machine has %d", p.ID, len(st.Regfile), isa.NumRegs)
	}
	p.pc = st.PC
	p.fetchResumeAt = st.FetchResumeAt
	p.haltFetched = st.HaltFetched
	p.halted = st.Halted
	p.HaltCycle = st.HaltCycle
	p.nextID = st.NextID
	copy(p.regfile[:], st.Regfile)
	// Reuse the discarded entries' allocations: *robEntry pointers never
	// escape the package (cross-component references are by ROB id), so the
	// old entries can be overwritten in place. old[i] is read before append
	// writes slot i of the shared backing array.
	old := p.rob
	p.rob = p.rob[:0]
	if p.byID == nil {
		p.byID = make(map[uint64]*robEntry, len(st.ROB))
	} else {
		clear(p.byID)
	}
	for i, es := range st.ROB {
		if es.PC < 0 || es.PC >= p.prog.Len() {
			return fmt.Errorf("cpu %d: snapshot entry %d fetched from pc %d, program has %d instructions", p.ID, es.ID, es.PC, p.prog.Len())
		}
		var e *robEntry
		if i < len(old) {
			e = old[i]
		} else {
			e = new(robEntry)
		}
		*e = robEntry{
			id: es.ID, pc: es.PC, instr: p.prog.At(es.PC),
			src: restoreOperand(es.Src), src2: restoreOperand(es.Src2),
			isMem: es.IsMem, executed: es.Executed,
			execAt: es.ExecAt, execSet: es.ExecSet,
			value: es.Value, complete: es.Complete,
			baseSent: es.BaseSent, dataSent: es.DataSent,
			storeSignaled: es.StoreSignaled,
			predTaken:     es.PredTaken, predTarget: es.PredTarget,
		}
		p.rob = append(p.rob, e)
		p.byID[e.id] = e
	}
	// Rebuild the renaming table from the survivors; behaviourally identical
	// to the live table (see the State doc comment).
	p.rat = [isa.NumRegs]ratEntry{}
	for _, e := range p.rob {
		if e.instr.WritesReg() {
			p.rat[e.instr.Dst] = ratEntry{producer: e.id, valid: true}
		}
	}
	if p.predictor == nil {
		p.predictor = make(map[int]uint8, len(st.Predictor))
	} else {
		clear(p.predictor)
	}
	for _, e := range st.Predictor {
		p.predictor[e.PC] = e.Counter
	}
	p.Stats.RestoreState(st.Stats)
	return nil
}
