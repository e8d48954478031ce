// Package core implements the paper's primary contribution: enforcement of
// memory consistency models in a dynamically scheduled processor, together
// with the two latency-hiding techniques the paper proposes —
// hardware-controlled non-binding prefetch (§3) and speculative execution
// for load accesses (§4) — plus the related-work comparator modes (§6).
//
// The package models the load/store functional unit of Figure 4: the
// load/store reservation station, the address unit, the store buffer, and
// the speculative-load buffer, layered on the lockup-free cache from
// internal/cache. The surrounding out-of-order processor lives in
// internal/cpu and interacts with the LSU through the CPU interface
// declared here.
package core

import "fmt"

// Model enumerates the supported memory consistency models, from strictest
// to most relaxed (paper §2, Figure 1).
type Model uint8

// Consistency models.
const (
	// SC is Lamport's sequential consistency: shared accesses perform in
	// program order.
	SC Model = iota
	// PC is Goodman's processor consistency: reads may bypass previous
	// writes, but reads stay ordered with reads and writes with writes.
	PC
	// WC is Dubois' weak consistency (WCsc): ordinary accesses between
	// synchronization points pipeline freely; synchronization accesses wait
	// for everything before them and block everything after them.
	WC
	// RC is release consistency (RCpc): ordinary accesses wait only for
	// previous acquires; a release waits for all previous accesses but does
	// not block accesses after it; special accesses are processor
	// consistent among themselves.
	RC
	// RCsc is the release-consistency variant whose special accesses are
	// sequentially consistent among themselves (paper footnote 1 names the
	// figure's models WCsc and RCpc; RCsc is the other point of the
	// framework of reference [8]): an acquire additionally waits for
	// previous releases.
	RCsc
)

func (m Model) String() string {
	switch m {
	case SC:
		return "SC"
	case PC:
		return "PC"
	case WC:
		return "WC"
	case RC:
		return "RC"
	case RCsc:
		return "RCsc"
	default:
		return fmt.Sprintf("Model(%d)", uint8(m))
	}
}

// AllModels lists the models in strictness order, for sweeps. RCsc sits
// between WC and RCpc in strictness.
var AllModels = []Model{SC, PC, WC, RCsc, RC}

// ParseModel converts a model name ("SC", "pc", ...) to a Model.
func ParseModel(s string) (Model, error) {
	switch s {
	case "SC", "sc":
		return SC, nil
	case "PC", "pc":
		return PC, nil
	case "WC", "wc":
		return WC, nil
	case "RC", "rc", "RCpc", "rcpc":
		return RC, nil
	case "RCsc", "rcsc":
		return RCsc, nil
	}
	return SC, fmt.Errorf("unknown consistency model %q", s)
}

// Technique selects which of the paper's mechanisms are active.
type Technique struct {
	// Prefetch enables hardware-controlled non-binding prefetching (§3):
	// accesses delayed in the load/store buffers by consistency constraints
	// are issued as read or read-exclusive prefetches.
	Prefetch bool
	// SpecLoad enables speculative execution for load accesses (§4): loads
	// issue as soon as their effective address is known and the
	// speculative-load buffer detects and corrects mis-speculation.
	SpecLoad bool
	// ReissueOpt enables the paper's optimization for the case where a
	// coherence event matches a speculative load that has not yet completed:
	// only the load is reissued instead of flushing the pipeline (§4.2,
	// second case). Without it every match flushes conservatively.
	ReissueOpt bool
	// AdveHill enables the §6 comparator: an SC implementation that stalls
	// a store only until ownership is acquired rather than until the write
	// has performed everywhere (Adve & Hill 1990). Only meaningful with
	// Model == SC and the invalidation protocol.
	AdveHill bool
	// Revalidate selects the alternative detection policy of §4.1: when a
	// coherence transaction matches a completed speculative load, instead
	// of squashing immediately the entry is marked suspect, and once the
	// consistency model would have allowed the access to perform the load
	// is repeated and its return value compared with the speculated value
	// ("a naive way to detect an incorrect speculated value is to repeat
	// the access when the consistency model would have allowed it to
	// proceed ... and to check the return value with the speculated
	// value"). Equal values — false sharing, or a write of the same value —
	// avoid the rollback at the price of a second cache access.
	Revalidate bool
	// DetectSC enables the §6 extension of the detection mechanism
	// (Gharachorloo & Gibbons, SPAA 1991, the paper's reference [6]): on a
	// relaxed-model machine, a monitor shaped like the speculative-load
	// buffer — but with sequential consistency's ordering rules and no
	// correction — watches coherence traffic and counts accesses whose
	// early performance may have violated SC. For every execution it then
	// certifies either "this execution was sequentially consistent" (zero
	// detections) or "the program has data races". Our monitor is
	// conservative (line-granular, like footnote 2), so detections imply
	// *possible* violations; zero detections is a guarantee.
	DetectSC bool
}

func (t Technique) String() string {
	switch {
	case t.Prefetch && t.SpecLoad:
		return "pf+spec"
	case t.Prefetch:
		return "pf"
	case t.SpecLoad:
		return "spec"
	case t.AdveHill:
		return "advehill"
	default:
		return "conv"
	}
}

// AccessClass classifies a memory access for the consistency predicates.
type AccessClass uint8

// Access classes.
const (
	ClassLoad    AccessClass = iota // ordinary load
	ClassStore                      // ordinary store
	ClassAcquire                    // acquire synchronization read
	ClassRelease                    // release synchronization write
	ClassRMW                        // atomic read-modify-write (acquire)
	// ClassPrefetch / ClassPrefetchEx are software prefetch instructions
	// (paper §6): non-binding, never ordered by any model, fire-and-forget.
	ClassPrefetch
	ClassPrefetchEx
)

func (c AccessClass) String() string {
	switch c {
	case ClassLoad:
		return "ld"
	case ClassStore:
		return "st"
	case ClassAcquire:
		return "ld.acq"
	case ClassRelease:
		return "st.rel"
	case ClassRMW:
		return "rmw"
	case ClassPrefetch:
		return "pf"
	case ClassPrefetchEx:
		return "pf.x"
	default:
		return "?"
	}
}

// isRead reports whether the class binds a register value from memory.
func (c AccessClass) isRead() bool {
	return c == ClassLoad || c == ClassAcquire || c == ClassRMW
}

// isWrite reports whether the class modifies memory.
func (c AccessClass) isWrite() bool {
	return c == ClassStore || c == ClassRelease || c == ClassRMW
}

// isSync reports whether the class is a synchronization access.
func (c AccessClass) isSync() bool {
	return c == ClassAcquire || c == ClassRelease || c == ClassRMW
}

// isAcquire reports whether the class has acquire semantics.
func (c AccessClass) isAcquire() bool {
	return c == ClassAcquire || c == ClassRMW
}

// isSWPrefetch reports whether the class is a software prefetch, which is
// invisible to every consistency predicate (non-binding, §3.1/§6).
func (c AccessClass) isSWPrefetch() bool {
	return c == ClassPrefetch || c == ClassPrefetchEx
}

// blocksIssue evaluates the conventional delay arcs of Figure 1: it reports
// whether an incomplete older access of class `older` forces access `cur`
// to be delayed under model m.
//
// This is the LSU's one per-model ordering switch. The speculative-load
// technique issues reads without consulting it and instead records in each
// speculative-load buffer row what the read would have waited for
// (addSpecEntry); the prefetch technique issues a non-binding prefetch
// when the predicate says "delay".
func blocksIssue(m Model, older, cur AccessClass) bool {
	switch m {
	case SC:
		// Every access waits for every previous access.
		return true
	case PC:
		// Reads wait for previous reads; writes wait for everything
		// (reads bypass previous writes only).
		if cur.isRead() && !cur.isWrite() {
			return older.isRead()
		}
		return true
	case WC:
		// Synchronization accesses wait for everything; ordinary accesses
		// wait for previous synchronization accesses.
		if cur.isSync() {
			return true
		}
		return older.isSync()
	case RC:
		// A release waits for everything previous. Ordinary accesses wait
		// only for previous acquires. Special accesses are processor
		// consistent among themselves: an acquire (a sync read) waits for
		// previous acquires but may bypass a pending release (a sync
		// write); a release waits for everything anyway.
		if cur == ClassRelease {
			return true
		}
		if cur.isAcquire() {
			return older.isAcquire()
		}
		return older.isAcquire()
	case RCsc:
		// As RC, but special accesses are sequentially consistent among
		// themselves: an acquire also waits for previous releases.
		if cur == ClassRelease {
			return true
		}
		if cur.isAcquire() {
			return older.isSync()
		}
		return older.isAcquire()
	default:
		panic("core: unknown model")
	}
}
