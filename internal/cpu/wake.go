package cpu

import "mcmsim/internal/isa"

// This file is the processor's quiescence interface for the simulator's
// wake schedule (sim.System) and the shard engine. NextWake must answer,
// without mutating any pipeline state: would TickFrontend, TickExecute or
// TickRetire change anything at cycle `now`, and if not, at which future
// cycle could they? Every condition below mirrors the corresponding tick's
// gate exactly. The execute term reads only the ready list (ready.go),
// which holds every entry TickExecute could move, so it costs the list's
// length, not the reorder buffer's. A verdict that is too optimistic would
// skip a cycle the dense loop would have used and silently change cycle
// counts, so when in doubt the answer is "busy now" (which merely costs a
// dense step). TestReadyListComplete holds the list and this answer to a
// scan of the whole buffer after every stepped cycle.

// NextWake reports the next cycle at which the processor can make progress
// on its own (ok=false when it is fully event-driven or halted: it then
// wakes only via LSU/cache callbacks, which the simulator accounts for
// through the other components' wake times).
func (p *Proc) NextWake(now uint64) (uint64, bool) {
	if p.halted {
		return 0, false
	}
	wake := uint64(0)
	ok := false

	// Frontend: decoding proceeds whenever there is ROB space and the fetch
	// stage is not serving a redirect penalty.
	if !p.haltFetched && len(p.rob) < p.cfg.ROBSize {
		if now >= p.fetchResumeAt {
			return now, true
		}
		wake, ok = p.fetchResumeAt, true
	}

	// Execute: an entry whose operands just became available makes progress
	// this cycle (operand capture for memory ops, ALU/branch scheduling for
	// the rest); an already-scheduled ALU/branch op wakes at its execAt.
	// Every other entry waits for a producer's delivery, which is some
	// other component's event, so only the ready list needs a look.
	for e := p.ready; e != nil; e = e.readyNext {
		if e.isMem {
			if (!e.baseSent && waitsFor(&e.src) == nil) ||
				(!e.dataSent && waitsFor(&e.src2) == nil) {
				return now, true
			}
			continue
		}
		if e.executed {
			continue
		}
		if waitsFor(&e.src) != nil || waitsFor(&e.src2) != nil {
			continue
		}
		if !e.execSet || e.execAt <= now {
			return now, true
		}
		if !ok || e.execAt < wake {
			wake, ok = e.execAt, true
		}
	}

	// Retire: the head makes progress if it still has to signal the store
	// buffer or if it can retire. A halt retires only once it is alone in
	// the buffer and the LSU drained (TickRetire's extra gate).
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
