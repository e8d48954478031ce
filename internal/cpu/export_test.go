package cpu

import (
	"fmt"

	"mcmsim/internal/isa"
)

// This file keeps the execute stage's scheduling as it was before the
// ready list, as the reference the list is checked against: TickExecute
// swept the whole reorder buffer to a fixpoint every cycle, and NextWake
// swept it again, asking of every entry whether its operands had arrived.

// refOperandReady reports whether resolve would succeed for o, by polling
// its producer.
func refOperandReady(o *operand) bool {
	if o.ready {
		return true
	}
	e := producerAt(o.slot, o.producer)
	if e == nil {
		return true // producer retired; register file holds the value
	}
	_, ready := producerValue(e)
	return ready
}

// refRunnable reports whether the whole-buffer sweep had work for e: an
// operand to push to the LSU, or an ALU op or branch to schedule or run.
func refRunnable(e *robEntry) bool {
	if e.isMem {
		return (!e.baseSent && refOperandReady(&e.src)) ||
			(!e.dataSent && refOperandReady(&e.src2))
	}
	return !e.executed && refOperandReady(&e.src) && refOperandReady(&e.src2)
}

// refNextWake is NextWake with the execute term computed by sweeping the
// whole reorder buffer.
func (p *Proc) refNextWake(now uint64) (uint64, bool) {
	if p.halted {
		return 0, false
	}
	wake := uint64(0)
	ok := false
	if !p.haltFetched && len(p.rob) < p.cfg.ROBSize {
		if now >= p.fetchResumeAt {
			return now, true
		}
		wake, ok = p.fetchResumeAt, true
	}
	for _, e := range p.rob {
		if !refRunnable(e) {
			continue
		}
		if e.isMem || !e.execSet || e.execAt <= now {
			return now, true
		}
		if !ok || e.execAt < wake {
			wake, ok = e.execAt, true
		}
	}
	if len(p.rob) > 0 {
		e := p.rob[0]
		in := e.instr
		if in.Op == isa.OpHalt {
			if len(p.rob) == 1 && p.lsu.Drained() {
				return now, true
			}
		} else {
			if e.isMem && (in.IsStore() || in.Op == isa.OpRMW) && !e.storeSignaled {
				return now, true
			}
			if p.canRetire(e) {
				return now, true
			}
		}
	}
	return wake, ok
}

// CheckReadyList holds the processor's ready list to the whole-buffer
// reference between cycles, with now the next cycle to run: the list must
// be strictly id-ascending, hold only live entries flagged as listed,
// and hold every entry the reference finds work for, and NextWake(now)
// must give the reference's answer.
func CheckReadyList(p *Proc, now uint64) error {
	listed := 0
	var last *robEntry
	for e := p.ready; e != nil; e = e.readyNext {
		switch {
		case listed > len(p.rob):
			return fmt.Errorf("cpu %d: ready list longer than the %d-entry buffer (a cycle?)", p.ID, len(p.rob))
		case !e.live || p.entry(e.id) != e:
			return fmt.Errorf("cpu %d: ready list holds id %d, which is not in the buffer", p.ID, e.id)
		case !e.onReady:
			return fmt.Errorf("cpu %d: ready list holds id %d unflagged", p.ID, e.id)
		case last != nil && e.id <= last.id:
			return fmt.Errorf("cpu %d: ready list has id %d after id %d", p.ID, e.id, last.id)
		}
		listed++
		last = e
	}
	if p.readyTail != last {
		return fmt.Errorf("cpu %d: ready tail is not the list's last entry", p.ID)
	}
	for _, e := range p.rob {
		if !e.onReady && refRunnable(e) {
			return fmt.Errorf("cpu %d: id %d (%v) can progress but is not on the ready list", p.ID, e.id, e.instr)
		}
		if err := p.checkWaiters(e); err != nil {
			return err
		}
	}
	gotAt, gotOK := p.NextWake(now)
	wantAt, wantOK := p.refNextWake(now)
	if gotAt != wantAt || gotOK != wantOK {
		return fmt.Errorf("cpu %d: NextWake(%d) = %d, %v; the whole-buffer sweep says %d, %v", p.ID, now, gotAt, gotOK, wantAt, wantOK)
	}
	return nil
}

// checkWaiters requires that every operand e needs from an in-flight
// producer without a value puts e on that producer's waiters, and that
// every waiter on e's own list is a live, younger entry needing e.
func (p *Proc) checkWaiters(e *robEntry) error {
	for k, o := range [2]*operand{&e.src, &e.src2} {
		w := waitsFor(o)
		if w == nil || !e.needs(k) {
			continue
		}
		found := false
		n := 0
		for c := w.waiters; c != nil && n <= len(p.rob); c = c.waitNext[c.linkOf(w)] {
			found = found || c == e
			n++
		}
		if !found {
			return fmt.Errorf("cpu %d: id %d waits for id %d but is not on its waiters", p.ID, e.id, w.id)
		}
	}
	n := 0
	for c := e.waiters; c != nil; c = c.waitNext[c.linkOf(e)] {
		if n++; n > len(p.rob) {
			return fmt.Errorf("cpu %d: waiters of id %d longer than the buffer (a cycle?)", p.ID, e.id)
		}
		if !c.live || p.entry(c.id) != c || c.id <= e.id {
			return fmt.Errorf("cpu %d: waiters of id %d hold id %d, not a younger entry in the buffer", p.ID, e.id, c.id)
		}
		if !(c.needs(0) && c.src.names(e)) && !(c.needs(1) && c.src2.names(e)) {
			return fmt.Errorf("cpu %d: waiters of id %d hold id %d, which needs no operand from it", p.ID, e.id, c.id)
		}
	}
	return nil
}

// MispredictingLoop is a branchy ALU program whose data-dependent branch
// mispredicts every other iteration, so squashes leave gaps in the
// buffer's ids. Its accumulator r3 ends at 500: each of the 100 odd
// iterations adds 4, each even one 1.
func MispredictingLoop() *isa.Program {
	b := isa.NewBuilder()
	b.Li(isa.R1, 200) // iterations
	b.Li(isa.R3, 0)   // accumulator
	b.Li(isa.R4, 1)
	b.Label("loop")
	b.And(isa.R2, isa.R1, isa.R4)
	b.Beqz(isa.R2, "even")
	b.AddI(isa.R3, isa.R3, 3)
	b.Label("even")
	b.AddI(isa.R3, isa.R3, 1)
	b.AddI(isa.R1, isa.R1, -1)
	b.Bnez(isa.R1, "loop")
	b.Halt()
	return b.Build()
}
