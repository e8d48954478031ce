package conformance

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"mcmsim/internal/core"
	"mcmsim/internal/isa"
)

// The legacy oracle is an operational reference model: an abstract machine
// with a single multi-copy-atomic memory and per-processor op lists, where
// one enabled operation performs atomically per step. Exhaustive memoized
// DFS over the interleavings of enabled operations yields a superset of the
// final outcomes the consistency model allows.
//
// An operation is enabled exactly when the LSU's issue conditions would let
// it perform with every older-but-unperformed access still outstanding:
//
//   - Figure 1's delay arcs (core.Blocks) against every older unperformed
//     op — this is the whole per-model difference; under SC every arc
//     blocks, so the oracle degenerates to exact program-order
//     interleavings;
//   - writes (stores, releases, RMWs) additionally wait for all older
//     reads (precise retirement: the store buffer accepts a store only at
//     ROB head, by which point every older load has bound) and for older
//     same-address writes (the store buffer is FIFO, so same-line writes
//     perform in program order);
//   - a plain or acquire read with a youngest older unperformed
//     same-address plain store binds that store's value by forwarding —
//     the read performs early, the store stays pending (read-own-write-
//     early, §2's "read bypasses write" relaxation). A pending older
//     same-address RMW blocks the read instead: atomics never forward.
//
// Two deliberate over-approximations make this a strict superset for the
// relaxed models while leaving SC exact (both are gated behind arcs that
// block under SC): same-address read-read pairs are unordered, and the
// store-buffer write-FIFO is modeled only per address, not across
// addresses. The ExactOracle (exact.go) closes both holes; the legacy
// oracle is kept as a differential cross-check — every fuzz run asserts
// exact ⊆ legacy, so a bug in either model surfaces as a containment
// failure.

// oracleOp is one abstract operation of the reference machine.
type oracleOp struct {
	class core.AccessClass
	op    isa.Op
	addr  int // shared-variable index
	data  isa.DataRef
	rmw   isa.RMWKind
	read  int // per-processor read-binding index, or -1
}

// maxOracleStates bounds the memo table; the generator's MaxTotalOps keeps
// real programs far below it, so hitting the cap means a harness bug. The
// cap is a hard error from Outcomes, never a silent truncation: a truncated
// outcome set would turn containment checks into false violations (or,
// worse, false passes for the differential).
const maxOracleStates = 1 << 22

// ErrNotAnalyzable reports a program outside the oracle's fragment (not
// straight-line, or a register-binding read from a non-shared address).
var ErrNotAnalyzable = errors.New("conformance: program not analyzable by the oracle")

// LegacyOracle enumerates a superset of the outcomes one consistency model
// allows for one program. Build it once per (program, model) pair; Outcomes
// runs the search.
type LegacyOracle struct {
	model  core.Model
	procs  [][]oracleOp
	naddr  int
	nreads []int
	memoSearch
}

// OutcomeSet is a set of canonical outcome strings (see outcomeString).
type OutcomeSet map[string]struct{}

// Has reports membership.
func (s OutcomeSet) Has(o string) bool { _, ok := s[o]; return ok }

// Sorted returns the outcomes in lexicographic order.
func (s OutcomeSet) Sorted() []string {
	out := make([]string, 0, len(s))
	for o := range s {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// Subset reports whether every outcome of s is in t.
func (s OutcomeSet) Subset(t OutcomeSet) bool {
	for o := range s {
		if !t.Has(o) {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same outcomes.
func (s OutcomeSet) Equal(t OutcomeSet) bool {
	return len(s) == len(t) && s.Subset(t)
}

// extractOps builds the abstract per-processor op lists from the built ISA
// programs. shared lists the shared-variable addresses (index order defines
// variable numbering). Operations on other addresses are processor-private
// scaffolding (observation-slot stores) and are dropped; prefetches are
// non-binding hints and are dropped too. A register-binding read from a
// private address would make outcome extraction ambiguous, so it is
// rejected with ErrNotAnalyzable.
func extractOps(progs []*isa.Program, shared []uint64) (procs [][]oracleOp, nreads []int, err error) {
	idx := make(map[uint64]int, len(shared))
	for i, a := range shared {
		idx[a] = i
	}
	procs = make([][]oracleOp, len(progs))
	nreads = make([]int, len(progs))
	for p, prog := range progs {
		mops, ok := prog.MemOps()
		if !ok {
			return nil, nil, fmt.Errorf("%w: P%d is not straight-line", ErrNotAnalyzable, p)
		}
		// Remap MemOp read indices to the kept-op read numbering. Since
		// binding reads from private addresses are rejected, the map is
		// the identity, but building it keeps the invariant explicit.
		readMap := make(map[int]int)
		reads := 0
		for _, mo := range mops {
			if mo.Op == isa.OpPrefetch || mo.Op == isa.OpPrefetchEx {
				continue
			}
			ai, isShared := idx[mo.Addr]
			if !isShared {
				if mo.IsRead() {
					return nil, nil, fmt.Errorf("%w: P%d reads private address %#x", ErrNotAnalyzable, p, mo.Addr)
				}
				continue // observation-slot store: no shared-memory effect
			}
			oop := oracleOp{
				class: core.ClassOfOp(mo.Op),
				op:    mo.Op,
				addr:  ai,
				rmw:   mo.RMW,
				read:  -1,
			}
			if mo.IsWrite() {
				d := mo.Data
				if !d.IsConst() {
					r, ok := readMap[d.FromLoad]
					if !ok {
						return nil, nil, fmt.Errorf("%w: P%d store data from dropped read %d", ErrNotAnalyzable, p, d.FromLoad)
					}
					d.FromLoad = r
				}
				oop.data = d
			}
			if mo.IsRead() {
				readMap[mo.ReadIdx] = reads
				oop.read = reads
				reads++
			}
			procs[p] = append(procs[p], oop)
			if len(procs[p]) > 16 {
				return nil, nil, fmt.Errorf("%w: P%d has more than 16 shared ops", ErrNotAnalyzable, p)
			}
		}
		nreads[p] = reads
	}
	return procs, nreads, nil
}

// NewLegacyOracle extracts the abstract program (see extractOps) and wires
// up the superset search for model m.
func NewLegacyOracle(progs []*isa.Program, shared []uint64, m core.Model) (*LegacyOracle, error) {
	procs, nreads, err := extractOps(progs, shared)
	if err != nil {
		return nil, err
	}
	return &LegacyOracle{
		model:      m,
		procs:      procs,
		naddr:      len(shared),
		nreads:     nreads,
		memoSearch: memoSearch{maxStates: maxOracleStates},
	}, nil
}

// readPerformed reports whether read-binding index r of processor p has its
// perform bit set in mask.
func readPerformed(procs [][]oracleOp, mask []uint32, p, r int) bool {
	for i, op := range procs[p] {
		if op.read == r {
			return mask[p]&(1<<i) != 0
		}
	}
	return false
}

// resolveData evaluates a data reference against processor p's bindings.
func resolveData(binds [][]int64, p int, d isa.DataRef) int64 {
	if d.IsConst() {
		return d.Const
	}
	return binds[p][d.FromLoad]
}

// enabled reports whether op i of processor p may perform in state st, and
// if it is a read that must forward, the index of the source store.
func (o *LegacyOracle) enabled(st *oracleState, p, i int) (ok bool, fwd int) {
	ops := o.procs[p]
	cur := ops[i]
	mask := st.perf[p]
	fwd = -1
	// Figure 1 delay arcs against every older outstanding access.
	for j := 0; j < i; j++ {
		if mask&(1<<j) != 0 {
			continue
		}
		if core.Blocks(o.model, ops[j].class, cur.class) {
			return false, -1
		}
	}
	if cur.class.IsWrite() {
		for j := 0; j < i; j++ {
			if mask&(1<<j) != 0 {
				continue
			}
			if ops[j].class.IsRead() {
				return false, -1 // precise retirement: writes wait for older reads
			}
			if ops[j].addr == cur.addr {
				return false, -1 // FIFO store buffer: same-address writes in order
			}
		}
		if !cur.data.IsConst() && !readPerformed(o.procs, st.perf, p, cur.data.FromLoad) {
			return false, -1 // store data not yet available
		}
		return true, -1
	}
	// Plain or acquire read: check the store buffer for forwarding.
	for j := i - 1; j >= 0; j-- {
		if mask&(1<<j) != 0 || ops[j].addr != cur.addr || !ops[j].class.IsWrite() {
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

// Outcomes runs the exhaustive search and returns every outcome the model
// allows (plus the deliberate over-approximations documented above). A
// state space above the cap is a hard error, never a truncated set.
func (o *LegacyOracle) Outcomes() (OutcomeSet, error) {
	o.start(o.nreads, o.naddr, false)
	if err := o.search(); err != nil {
		return nil, err
	}
	return o.out, nil
}

// search explores every interleaving of enabled steps from the current
// state, performing each enabled op in place and undoing it on return.
func (o *LegacyOracle) search() error {
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
			ok, fwd := o.enabled(st, p, i)
			if !ok {
				continue
			}
			u := st.save(p, op)
			switch {
			case op.op == isa.OpRMW:
				old := st.mem[op.addr]
				st.mem[op.addr] = op.rmw.Apply(old, resolveData(st.binds, p, op.data))
				st.binds[p][op.read] = old
			case op.class.IsWrite():
				st.mem[op.addr] = resolveData(st.binds, p, op.data)
			case fwd >= 0:
				st.binds[p][op.read] = resolveData(st.binds, p, ops[fwd].data)
			default:
				st.binds[p][op.read] = st.mem[op.addr]
			}
			st.perf[p] |= 1 << i
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

// outcomeString renders an outcome canonically: each processor's read
// bindings in program order, then the final shared-memory image, as in
// "P0:[1 -2] P1:[] mem:[3 4]". The driver renders the simulator's
// observed outcome with the same function, so set membership is plain
// string equality.
func outcomeString(binds [][]int64, mem []int64) string {
	var buf [128]byte
	return string(appendOutcome(buf[:0], binds, mem))
}

// appendOutcome appends outcomeString's text to b.
func appendOutcome(b []byte, binds [][]int64, mem []int64) []byte {
	for p, pb := range binds {
		if p > 0 {
			b = append(b, ' ')
		}
		b = append(b, 'P')
		b = strconv.AppendInt(b, int64(p), 10)
		b = append(b, ':')
		b = appendValues(b, pb)
	}
	b = append(b, " mem:"...)
	return appendValues(b, mem)
}

// appendValues appends vs as fmt's %v renders an []int64: "[1 -2]".
func appendValues(b []byte, vs []int64) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, ']')
}

// LegacyModelOutcomes is the one-call convenience wrapper for the superset
// oracle: extract, search, return the outcome set for model m.
func LegacyModelOutcomes(progs []*isa.Program, shared []uint64, m core.Model) (OutcomeSet, error) {
	o, err := NewLegacyOracle(progs, shared, m)
	if err != nil {
		return nil, err
	}
	return o.Outcomes()
}
