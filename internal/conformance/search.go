package conformance

import (
	"encoding/binary"
	"fmt"
)

// oracleState is the abstract machine state both oracles search. The
// search keeps exactly one and changes it in place: a step saves what it
// may touch, applies its effect, recurses, and restores on return.
type oracleState struct {
	perf []uint32 // per-proc bitmask of performed ops
	// issued is the per-proc bitmask of writes that entered the store
	// buffer; a performed write keeps its bit. It is nil for the legacy
	// oracle, which has no issue step.
	issued []uint32
	mem    []int64   // shared memory image
	binds  [][]int64 // per-proc read bindings (valid once the read performed)
}

// appendKey appends the state's memo key to b. Every field is a varint
// and one search's states all have the same number of fields, so two
// states get the same key exactly when they are equal.
func (st *oracleState) appendKey(b []byte) []byte {
	for _, m := range st.perf {
		b = binary.AppendUvarint(b, uint64(m))
	}
	for _, m := range st.issued {
		b = binary.AppendUvarint(b, uint64(m))
	}
	for _, v := range st.mem {
		b = binary.AppendVarint(b, v)
	}
	for _, pb := range st.binds {
		for _, v := range pb {
			b = binary.AppendVarint(b, v)
		}
	}
	return b
}

// undo holds what one step of op on processor p can change: p's masks,
// the op's shared variable and its read binding. Both oracles' steps stay
// inside that footprint, so restore undoes any of them.
type undo struct {
	p, addr, read int
	perf, issued  uint32
	mem, bind     int64
}

// save records op's footprint on processor p before a step.
func (st *oracleState) save(p int, op oracleOp) undo {
	u := undo{p: p, addr: op.addr, read: op.read, perf: st.perf[p], mem: st.mem[op.addr]}
	if st.issued != nil {
		u.issued = st.issued[p]
	}
	if op.read >= 0 {
		u.bind = st.binds[p][op.read]
	}
	return u
}

// restore puts back what save recorded.
func (st *oracleState) restore(u undo) {
	st.perf[u.p] = u.perf
	if st.issued != nil {
		st.issued[u.p] = u.issued
	}
	st.mem[u.addr] = u.mem
	if u.read >= 0 {
		st.binds[u.p][u.read] = u.bind
	}
}

// memoSearch is the part of the exhaustive search both oracles share: the
// one mutable state, the memo of visited states with its cap, and the
// outcome set the final states fill. Each oracle supplies its own rules:
// which steps are enabled and what they do to the state.
type memoSearch struct {
	st        oracleState
	maxStates int
	memo      map[string]struct{}
	out       OutcomeSet
	key, text []byte // reused encoding buffers
}

// start resets the search to the all-zero initial state. withIssue gives
// the state per-processor issue masks.
func (s *memoSearch) start(nreads []int, naddr int, withIssue bool) {
	n := len(nreads)
	s.st = oracleState{perf: make([]uint32, n), mem: make([]int64, naddr), binds: make([][]int64, n)}
	if withIssue {
		s.st.issued = make([]uint32, n)
	}
	for p, r := range nreads {
		s.st.binds[p] = make([]int64, r)
	}
	s.memo = make(map[string]struct{})
	s.out = make(OutcomeSet)
}

// visit records the current state and reports whether it is new. Looking
// up a seen state allocates nothing; only a new state's key is copied
// into the memo. A state space above the cap is a hard error.
func (s *memoSearch) visit() (bool, error) {
	s.key = s.st.appendKey(s.key[:0])
	if _, seen := s.memo[string(s.key)]; seen {
		return false, nil
	}
	if len(s.memo) >= s.maxStates {
		return false, fmt.Errorf("conformance: oracle state space exceeds %d states", s.maxStates)
	}
	s.memo[string(s.key)] = struct{}{}
	return true, nil
}

// leaf records the outcome of the current state, a final one.
func (s *memoSearch) leaf() {
	s.text = appendOutcome(s.text[:0], s.st.binds, s.st.mem)
	s.out[string(s.text)] = struct{}{}
}
