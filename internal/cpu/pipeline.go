package cpu

import (
	"fmt"
	"slices"

	"mcmsim/internal/core"
	"mcmsim/internal/isa"
)

// TickFrontend fetches and decodes up to FetchWidth instructions along the
// predicted path, allocating reorder-buffer entries and dispatching memory
// instructions to the load/store unit. Runs at the start of each cycle.
func (p *Proc) TickFrontend(now uint64) {
	if p.halted || p.haltFetched || now < p.fetchResumeAt {
		return
	}
	for slots := p.cfg.FetchWidth; slots > 0 && len(p.rob) < p.cfg.ROBSize; slots-- {
		in := p.prog.At(p.pc)
		e := p.newEntry(p.nextID, p.pc, in)
		p.nextID++

		switch in.Op {
		case isa.OpHalt:
			p.haltFetched = true
			e.executed = true
			p.rob = append(p.rob, e)
			p.decoded.Inc()
			return
		case isa.OpNop:
			e.executed = true
			p.pc++
		case isa.OpJmp:
			// Unconditional direct jump: redirect fetch immediately.
			e.executed = true
			p.pc = int(in.Imm)
		case isa.OpBeqz, isa.OpBnez:
			e.src = p.readReg(in.Src)
			e.src2 = operand{ready: true}
			e.predTaken = p.predictTaken(p.pc)
			if e.predTaken {
				e.predTarget = int(in.Imm)
			} else {
				e.predTarget = p.pc + 1
			}
			p.pc = e.predTarget
		case isa.OpLoad, isa.OpStore, isa.OpAcquire, isa.OpRelease, isa.OpRMW,
			isa.OpPrefetch, isa.OpPrefetchEx:
			e.isMem = true
			base := p.readReg(in.Base)
			data := operand{ready: true}
			if in.IsStore() || in.Op == isa.OpRMW {
				data = p.readReg(in.Src)
			}
			e.src = base  // base-address operand
			e.src2 = data // store-data operand
			e.baseSent = base.ready
			e.dataSent = data.ready
			p.lsu.Dispatch(e.id, in, base.ready, base.value, data.ready, data.value)
			p.pc++
		default: // ALU
			e.src = p.readReg(in.Src)
			if usesSrc2(in.Op) {
				e.src2 = p.readReg(in.Src2)
			} else {
				e.src2 = operand{ready: true}
			}
			p.pc++
		}
		p.schedule(e)
		if in.WritesReg() {
			p.rat[in.Dst] = ratEntry{producer: e.id, slot: e, valid: true}
		}
		p.rob = append(p.rob, e)
		p.decoded.Inc()
	}
}

func usesSrc2(op isa.Op) bool {
	switch op {
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpSlt:
		return true
	}
	return false
}

// predictTaken consults the 2-bit counter for a branch PC. Counters start
// weakly not-taken so a test-and-set spin loop predicts the success path,
// as the paper assumes.
func (p *Proc) predictTaken(pc int) bool { return *p.counter(pc) >= 2 }

func (p *Proc) trainPredictor(pc int, taken bool) {
	c := p.counter(pc)
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// counter returns the branch's 2-bit counter, adding a weakly-not-taken
// one the first time the branch is seen.
func (p *Proc) counter(pc int) *uint8 {
	lo, hi := 0, len(p.predictor)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.predictor[mid].PC < pc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(p.predictor) || p.predictor[lo].PC != pc {
		p.predictor = slices.Insert(p.predictor, lo, PredictorState{PC: pc, Counter: 1})
	}
	return &p.predictor[lo].Counter
}

// TickExecute runs the functional units: ALU operations and branch
// resolution for entries whose operands are available, and forwards late
// operands to the load/store unit. It visits only the ready list, in one
// ascending pass: a result wakes its consumers onto the list behind the
// producer, and every producer is older than its consumers, so with
// zero-latency units a same-cycle dependence chain resolves within the
// pass, matching the paper's abstract timing.
func (p *Proc) TickExecute(now uint64) {
	var prev *robEntry
	for e := p.ready; e != nil; {
		keep, flushed := p.execute(e, now)
		if flushed {
			// A misprediction squashed everything after the branch; the
			// pass already visited the survivors. The squash rebuilt the
			// list without the branch unless nothing followed it.
			if e.onReady {
				p.dropReady(e, prev)
			}
			return
		}
		next := e.readyNext
		if keep {
			prev = e
		} else {
			p.dropReady(e, prev)
		}
		e = next
	}
}

// execute gives one ready entry its turn. It reports whether the entry
// stays on the ready list (an operation waiting out its latency) and
// whether a mispredicted branch flushed the pipeline. An entry that
// leaves the list with an operand still missing is on that operand's
// producer's waiters.
func (p *Proc) execute(e *robEntry, now uint64) (keep, flushed bool) {
	if e.isMem {
		if !e.baseSent && p.resolve(&e.src) {
			e.baseSent = true
			p.lsu.SetBaseOperand(e.id, e.src.value)
		}
		if !e.dataSent && p.resolve(&e.src2) {
			e.dataSent = true
			p.lsu.SetDataOperand(e.id, e.src2.value)
		}
		return false, false
	}
	if e.executed || !p.resolve(&e.src) || !p.resolve(&e.src2) {
		return false, false
	}
	lat := p.cfg.ALULatency
	if e.instr.IsBranch() {
		lat = p.cfg.BranchLatency
	}
	if !e.execSet {
		e.execSet = true
		e.execAt = now + lat
	}
	if now < e.execAt {
		return true, false
	}
	if e.instr.IsBranch() {
		return false, p.resolveBranch(e, now)
	}
	e.value = alu(e.instr, e.src.value, e.src2.value)
	e.executed = true
	p.wake(e)
	return false, false
}

// alu computes an integer operation.
func alu(in isa.Instruction, a, b int64) int64 {
	switch in.Op {
	case isa.OpAdd:
		return a + b
	case isa.OpAddI:
		return a + in.Imm
	case isa.OpSub:
		return a - b
	case isa.OpMul:
		return a * b
	case isa.OpAnd:
		return a & b
	case isa.OpOr:
		return a | b
	case isa.OpXor:
		return a ^ b
	case isa.OpSlt:
		if a < b {
			return 1
		}
		return 0
	case isa.OpSltI:
		if a < in.Imm {
			return 1
		}
		return 0
	case isa.OpNop:
		return 0
	default:
		panic(fmt.Sprintf("cpu: not an ALU op: %v", in))
	}
}

// resolveBranch resolves a conditional branch; returns true when a
// misprediction flushed the pipeline.
func (p *Proc) resolveBranch(e *robEntry, now uint64) bool {
	taken := false
	switch e.instr.Op {
	case isa.OpBeqz:
		taken = e.src.value == 0
	case isa.OpBnez:
		taken = e.src.value != 0
	}
	p.trainPredictor(e.pc, taken)
	e.executed = true
	target := e.pc + 1
	if taken {
		target = int(e.instr.Imm)
	}
	if taken == e.predTaken {
		p.branchesCorrect.Inc()
		return false
	}
	p.branchesMispredicted.Inc()
	p.squashAfter(e.id, target, now, p.cfg.MispredictPenalty)
	return true
}

// TickRetire commits completed instructions in order from the head of the
// reorder buffer, up to RetireWidth per cycle, and removes them from the
// buffer in one step. Stores are signaled to the store buffer when they
// reach the head (the precise-interrupt gate of §4.2); under SC a store
// stays at the head until it completes.
func (p *Proc) TickRetire(now uint64) {
	n := 0 // entries retired so far; p.rob[n] is the current head
	for n < p.cfg.RetireWidth && n < len(p.rob) {
		e := p.rob[n]
		in := e.instr

		// Signal the store buffer the first time a store or RMW is at the
		// head.
		if e.isMem && (in.IsStore() || in.Op == isa.OpRMW) && !e.storeSignaled {
			e.storeSignaled = true
			p.lsu.StoreAtHead(e.id)
		}

		if in.Op == isa.OpHalt {
			// The halt retires once it is the last entry left (canRetire's
			// condition) and the LSU drained.
			if n == len(p.rob)-1 && p.lsu.Drained() {
				n++
				p.halted = true
				p.HaltCycle = now
				p.retired.Inc()
			}
			break
		}
		if !p.canRetire(e) {
			break
		}
		if in.WritesReg() {
			p.regfile[in.Dst] = e.value
			if r := p.rat[in.Dst]; r.valid && r.producer == e.id {
				p.rat[in.Dst] = ratEntry{}
			}
		}
		if e.isMem {
			p.lsu.MarkRetired(e.id)
		}
		if e.waiters != nil {
			// An entry retires with waiters only if it never delivers a
			// value: a store or prefetch that a branch restored from a
			// snapshot of an earlier build names as its second source
			// (ROB id 0). The waiters read the register file now.
			p.wake(e)
		}
		n++
		p.retired.Inc()
	}
	if n > 0 {
		p.release(p.rob[:n])
		p.rob = p.rob[:copy(p.rob, p.rob[n:])]
	}
}

// canRetire evaluates the head entry's retirement condition.
func (p *Proc) canRetire(e *robEntry) bool {
	in := e.instr
	switch {
	case in.Op == isa.OpHalt:
		return len(p.rob) == 1 // everything before the halt retired
	case !e.isMem:
		return e.executed
	case in.IsPrefetch():
		// Software prefetches retire once issued; they bind nothing.
		return p.lsu.PrefetchDone(e.id)
	case in.IsLoad() || in.Op == isa.OpRMW:
		// Loads (and RMWs) retire when the value arrived and the entry has
		// left the speculative-load buffer (Figure 5, event 8).
		return p.lsu.CanRetireLoad(e.id)
	default: // store or release
		if p.lsu.Model() == core.SC {
			// SC retirement policy: the store at the head is not retired
			// until it completes, so the store buffer issues one store at a
			// time (§4.2).
			return p.lsu.StoreDone(e.id)
		}
		return p.lsu.StoreAddrReady(e.id)
	}
}

// LoadComplete implements core.CPU: the LSU delivers a load/RMW value. The
// result becomes visible to dependents immediately — before retirement —
// which is what lets speculative loads overlap with consistency delays.
func (p *Proc) LoadComplete(rob uint64, value int64, now uint64) {
	if e := p.entry(rob); e != nil {
		e.value = value
		e.complete = true
		p.wake(e)
	}
}

// StoreComplete implements core.CPU. An RMW's consumers may be waiting
// for it.
func (p *Proc) StoreComplete(rob uint64, now uint64) {
	if e := p.entry(rob); e != nil {
		e.complete = true
		p.wake(e)
	}
}

// InvalidateLoadValue implements core.CPU: a speculated value is withdrawn;
// dependents decoded from now on wait for the fresh LoadComplete.
func (p *Proc) InvalidateLoadValue(rob uint64) {
	if e := p.entry(rob); e != nil {
		e.complete = false
	}
}

// FlushFrom implements core.CPU: squash the entry rob and everything after
// it and re-fetch from its PC — the branch-misprediction machinery reused
// as the speculative-load correction mechanism (§4.1).
func (p *Proc) FlushFrom(rob uint64, now uint64) {
	idx := -1
	for i, e := range p.rob {
		if e.id >= rob {
			idx = i
			break
		}
	}
	if idx < 0 {
		return // nothing younger in flight
	}
	pc := p.rob[idx].pc
	p.truncate(idx)
	p.lsu.Flush(rob)
	p.pc = pc
	p.haltFetched = false
	p.fetchResumeAt = now + 1 + p.cfg.RollbackPenalty
	p.Stats.Counter("spec_flushes").Inc()
}

// squashAfter flushes everything after entry id (exclusive) and redirects
// fetch to target.
func (p *Proc) squashAfter(id uint64, target int, now uint64, penalty uint64) {
	idx := -1
	for i, e := range p.rob {
		if e.id > id {
			idx = i
			break
		}
	}
	if idx >= 0 {
		p.truncate(idx)
	}
	p.lsu.Flush(id + 1)
	p.pc = target
	p.haltFetched = false
	p.fetchResumeAt = now + 1 + penalty
}

// truncate removes reorder-buffer entries from index idx onward and rebuilds
// the register alias table and the operand lists from the survivors.
func (p *Proc) truncate(idx int) {
	p.release(p.rob[idx:])
	p.rob = p.rob[:idx]
	p.rebuild()
}
