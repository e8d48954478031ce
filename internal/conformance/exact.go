package conformance

import (
	"mcmsim/internal/core"
	"mcmsim/internal/isa"
)

// ExactOracle is the exact operational reference model, in the
// instantaneous-instruction-execution style: a monolithic multi-copy-atomic
// memory plus, per processor, a FIFO store buffer whose entries are the
// issued-but-unperformed writes. Where the LegacyOracle collapses each
// access to a single atomic "perform" step, the exact machine splits every
// write into two steps — issue (enter the store buffer) and perform (drain
// to memory) — which is precisely the structure of the simulator's LSU, so
// the enabledness rules below can mirror it clause for clause:
//
//   - perform-read (loads and acquires; one atomic step):
//     a. delay arcs: no older unperformed access blocks it under the model
//     (core.Blocks — the LSU's predicateOK over non-Done entries);
//     b. same-address read-read order: every older same-address read has
//     performed (the load queue issues head-only in program order and
//     the memory system serves same-line requests in order, so
//     same-address reads bind in program order under every model);
//     c. forwarding is forced, not optional: if any older same-address
//     write is unperformed, the read MUST bind the youngest one's value
//     (the LSU's dependence check never lets a load read memory past a
//     buffered store). An older unperformed RMW or a write whose data
//     is unbound stalls the read instead. With no pending write the
//     read binds memory.
//
//   - issue-write (stores, releases, RMWs enter the store buffer):
//     a. write FIFO: every older write has issued (nextStoreCandidate is
//     strict FIFO — an ineligible store blocks younger stores);
//     b. precise retirement: every older load and acquire has performed (a
//     store reaches the store buffer head only at ROB head, by which
//     point every older load has retired with its value bound);
//     c. delay arcs against every older unperformed access;
//     d. the store's data is bound.
//     Issuing changes no memory or binding — it only moves the write into
//     the buffer — but it is globally visible in one way: younger writes'
//     FIFO clause sees it. That is the paper's write pipelining: a release
//     may sit unperformed while younger ordinary writes issue AND perform
//     behind it only if the model's arcs say so; under RC they do not wait,
//     but the FIFO clause still forces issue order, which is what the
//     pinned store-FIFO litmus (TestExactStoreFIFO) observes.
//
//   - perform-write (an issued write drains to memory):
//     a. every older same-address write has performed (same-line requests
//     are served in order; different lines drain out of order through
//     the lockup-free cache).
//     An RMW binds its read from memory and applies its update in this one
//     atomic step.
//
// The state space is finite (two bits per op plus bounded memory/binding
// values), searched by the same memoized DFS as the legacy oracle. Every
// exact trace maps to a legacy trace by dropping issue steps, so
// exact ⊆ legacy holds model by model — the conformance driver asserts it
// on every program as a built-in differential — and under SC the issue
// step is unobservable (arcs delay everything younger anyway), so
// exact(SC) == legacy(SC).
type ExactOracle struct {
	model  core.Model
	procs  [][]oracleOp
	naddr  int
	nreads []int
	memoSearch
}

// NewExactOracle extracts the abstract program (see extractOps) and wires
// up the exact two-phase search for model m.
func NewExactOracle(progs []*isa.Program, shared []uint64, m core.Model) (*ExactOracle, error) {
	procs, nreads, err := extractOps(progs, shared)
	if err != nil {
		return nil, err
	}
	return &ExactOracle{
		model:      m,
		procs:      procs,
		naddr:      len(shared),
		nreads:     nreads,
		memoSearch: memoSearch{maxStates: maxOracleStates},
	}, nil
}

// isReadOnly reports whether op is a load or acquire (binds a value without
// writing). RMWs are write-class for scheduling: they live in the store
// buffer and bind their read at perform time.
func isReadOnly(op oracleOp) bool {
	return op.class.IsRead() && op.op != isa.OpRMW
}

// arcsPermit checks Figure 1's delay arcs for op i of processor p against
// every older unperformed access (issued-but-unperformed writes still
// block: the LSU's predicate tests Done, not issued).
func (o *ExactOracle) arcsPermit(st *oracleState, p, i int) bool {
	ops := o.procs[p]
	for j := 0; j < i; j++ {
		if st.perf[p]&(1<<j) != 0 {
			continue
		}
		if core.Blocks(o.model, ops[j].class, ops[i].class) {
			return false
		}
	}
	return true
}

// enabledRead implements the perform-read step's enabledness and resolves
// the forwarding source: fwd >= 0 forces a bind from that op's data.
func (o *ExactOracle) enabledRead(st *oracleState, p, i int) (ok bool, fwd int) {
	ops := o.procs[p]
	cur := ops[i]
	if !o.arcsPermit(st, p, i) {
		return false, -1
	}
	for j := 0; j < i; j++ {
		if st.perf[p]&(1<<j) != 0 {
			continue
		}
		if ops[j].class.IsRead() && ops[j].addr == cur.addr {
			return false, -1 // same-address reads bind in program order
		}
	}
	// Store-buffer dependence check: youngest older unperformed
	// same-address write wins; forwarding from it is mandatory.
	for j := i - 1; j >= 0; j-- {
		if st.perf[p]&(1<<j) != 0 || ops[j].addr != cur.addr || !ops[j].class.IsWrite() {
			continue
		}
		if ops[j].op == isa.OpRMW {
			return false, -1 // atomics never forward
		}
		if !ops[j].data.IsConst() && !readPerformed(o.procs, st.perf, p, ops[j].data.FromLoad) {
			return false, -1 // forwarding source's data not yet available
		}
		return true, j
	}
	return true, -1
}

// enabledIssue implements the issue-write step's enabledness.
func (o *ExactOracle) enabledIssue(st *oracleState, p, i int) bool {
	ops := o.procs[p]
	for j := 0; j < i; j++ {
		if ops[j].class.IsWrite() && st.issued[p]&(1<<j) == 0 {
			return false // store buffer issues strictly FIFO
		}
		if st.perf[p]&(1<<j) != 0 {
			continue
		}
		if isReadOnly(ops[j]) {
			return false // ROB head: every older load has bound
		}
		if core.Blocks(o.model, ops[j].class, ops[i].class) {
			return false
		}
	}
	if !ops[i].data.IsConst() && !readPerformed(o.procs, st.perf, p, ops[i].data.FromLoad) {
		return false // store data not yet available
	}
	return true
}

// enabledDrain implements the perform-write step's enabledness for an
// already-issued write.
func (o *ExactOracle) enabledDrain(st *oracleState, p, i int) bool {
	ops := o.procs[p]
	for j := 0; j < i; j++ {
		if st.perf[p]&(1<<j) != 0 {
			continue
		}
		if ops[j].class.IsWrite() && ops[j].addr == ops[i].addr {
			return false // same-address writes drain in program order
		}
	}
	return true
}

// Outcomes runs the exhaustive search and returns exactly the outcomes the
// model allows. A state space above the cap is a hard error, never a
// truncated set.
func (o *ExactOracle) Outcomes() (OutcomeSet, error) {
	o.start(o.nreads, o.naddr, true)
	if err := o.search(); err != nil {
		return nil, err
	}
	return o.out, nil
}

// search explores every interleaving of enabled steps from the current
// state, taking each step in place and undoing it on return. The oldest
// unperformed op of any processor is always eventually steppable (its
// older ops are all performed, hence issued), so no reachable non-final
// state is stuck and every DFS branch extends to a complete outcome.
func (o *ExactOracle) search() error {
	if fresh, err := o.visit(); !fresh {
		return err
	}
	st := &o.st
	done := true
	for p, ops := range o.procs {
		for i, op := range ops {
			if st.perf[p]&(1<<i) != 0 {
				continue
			}
			done = false
			var u undo
			switch {
			case isReadOnly(op):
				ok, fwd := o.enabledRead(st, p, i)
				if !ok {
					continue
				}
				u = st.save(p, op)
				// perform-read: bind the forced forwarding source, or memory.
				if fwd >= 0 {
					st.binds[p][op.read] = resolveData(st.binds, p, ops[fwd].data)
				} else {
					st.binds[p][op.read] = st.mem[op.addr]
				}
				st.perf[p] |= 1 << i
			case st.issued[p]&(1<<i) == 0:
				if !o.enabledIssue(st, p, i) {
					continue
				}
				u = st.save(p, op)
				// issue-write: enter the store buffer.
				st.issued[p] |= 1 << i
			default:
				if !o.enabledDrain(st, p, i) {
					continue
				}
				u = st.save(p, op)
				// perform-write: drain to memory; an RMW binds its read
				// and applies its update in the same step.
				if op.op == isa.OpRMW {
					old := st.mem[op.addr]
					st.mem[op.addr] = op.rmw.Apply(old, resolveData(st.binds, p, op.data))
					st.binds[p][op.read] = old
				} else {
					st.mem[op.addr] = resolveData(st.binds, p, op.data)
				}
				st.perf[p] |= 1 << i
			}
			err := o.search()
			st.restore(u)
			if err != nil {
				return err
			}
		}
	}
	if done {
		o.leaf()
	}
	return nil
}

// ModelOutcomes is the one-call convenience wrapper for the exact oracle:
// extract, search, return the outcome set for model m. This is the
// conformance tier's containment reference; LegacyModelOutcomes keeps the
// superset model available for the differential cross-check.
func ModelOutcomes(progs []*isa.Program, shared []uint64, m core.Model) (OutcomeSet, error) {
	o, err := NewExactOracle(progs, shared, m)
	if err != nil {
		return nil, err
	}
	return o.Outcomes()
}
