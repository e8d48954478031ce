package cpu

import "mcmsim/internal/isa"

// This file is the execute stage's operand wakeup. An entry that needs an
// operand whose producer has not delivered it sits on the producer's
// waiters list (linked through the entries themselves, so the lists
// allocate nothing). When the producer delivers — an ALU result, a load's
// or RMW's LoadComplete or StoreComplete, or retirement — its waiters
// move to the ready list, which TickExecute walks and NextWake reads. The
// operand itself is captured lazily, by resolve, on the entry's turn. A
// squash or a restore rebuilds both kinds of list from the surviving
// entries, as it rebuilds the register alias table.

// needs reports whether e still has a use for its operand k: an ALU op or
// branch needs both until it executes, a memory instruction each until it
// has pushed it to the LSU.
func (e *robEntry) needs(k int) bool {
	if e.isMem {
		if k == 0 {
			return !e.baseSent
		}
		return !e.dataSent
	}
	return !e.executed
}

// linkOf is the operand through which e sits on producer w's waiters: the
// first one it needs that names w. An entry reading one producer through
// both operands is linked once, through operand 0. Neither condition
// changes while e is linked: an operand resolves, and stops being needed,
// only after its producer delivered and emptied its list.
func (e *robEntry) linkOf(w *robEntry) int {
	if e.needs(0) && e.src.names(w) {
		return 0
	}
	return 1
}

// waitsFor returns the in-flight producer whose value o still waits for,
// or nil once the value is available: delivered, or committed to the
// register file when the producer retired.
func waitsFor(o *operand) *robEntry {
	if o.ready {
		return nil
	}
	e := producerAt(o.slot, o.producer)
	if e == nil {
		return nil
	}
	if _, ok := producerValue(e); ok {
		return nil
	}
	return e
}

// schedule files an entry after decode or a rebuild: each operand it needs
// that waits for a producer links onto that producer's waiters, and the
// entry joins the ready list if TickExecute has work for it — a memory
// instruction with any needed operand available, an ALU op or branch with
// both.
func (p *Proc) schedule(e *robEntry) {
	available, missing := false, false
	var linked *robEntry
	for k, o := range [2]*operand{&e.src, &e.src2} {
		if !e.needs(k) {
			continue
		}
		w := waitsFor(o)
		if w == nil {
			available = true
			continue
		}
		missing = true
		if w != linked {
			e.waitNext[k] = w.waiters
			w.waiters = e
			linked = w
		}
	}
	if available && (e.isMem || !missing) {
		p.pushReady(e)
	}
}

// wake moves the entries waiting for e's result to the ready list: e has
// just delivered it, or retired.
func (p *Proc) wake(e *robEntry) {
	for w := e.waiters; w != nil; {
		next := w.waitNext[w.linkOf(e)]
		p.pushReady(w)
		w = next
	}
	e.waiters = nil
}

// pushReady puts e on the ready list, in id order. A decoded entry joins
// at the tail; a woken one usually close behind its producer.
func (p *Proc) pushReady(e *robEntry) {
	if e.onReady {
		return
	}
	e.onReady = true
	if t := p.readyTail; t == nil || t.id < e.id {
		e.readyNext = nil
		if t == nil {
			p.ready = e
		} else {
			t.readyNext = e
		}
		p.readyTail = e
		return
	}
	at := &p.ready
	for (*at).id < e.id {
		at = &(*at).readyNext
	}
	e.readyNext = *at
	*at = e
}

// dropReady unlinks e from the ready list; prev is its predecessor, nil
// when e is the head.
func (p *Proc) dropReady(e, prev *robEntry) {
	if prev == nil {
		p.ready = e.readyNext
	} else {
		prev.readyNext = e.readyNext
	}
	if p.readyTail == e {
		p.readyTail = prev
	}
	e.onReady = false
}

// rebuild recomputes everything derived from the surviving entries after
// a squash or a restore: the register alias table, pointing every
// register at its youngest in-flight writer, the waiters lists and the
// ready list. Producers are older than their consumers, so one ascending
// pass clears each entry's waiters before any consumer links onto it.
func (p *Proc) rebuild() {
	p.rat = [isa.NumRegs]ratEntry{}
	p.ready, p.readyTail = nil, nil
	for _, e := range p.rob {
		e.waiters, e.onReady = nil, false
		p.schedule(e)
		if e.instr.WritesReg() {
			p.rat[e.instr.Dst] = ratEntry{producer: e.id, slot: e, valid: true}
		}
	}
}
