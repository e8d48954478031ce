// Package snapshot defines the exact serialized form of a simulated
// machine and its gob-based persistence.
//
// A snapshot may be taken between any two cycles, quiescent or not: every
// transient structure — in-flight messages (with their assigned delivery
// cycles and arbitration sequence numbers), MSHRs with their merged
// waiters and deferred coherence events, scheduled completions,
// reorder-buffer entries, speculative-load and SC-monitor buffers, store
// buffers, directory recall transactions and ingress queues, pending
// scheduled external writes — serializes by value alongside the
// architectural state (memory image, cache arrays, directory sharing
// vectors and version counters, registers and program counters), the
// monotonic counters (clock, network arbitration sequence, instruction
// IDs, LRU clocks, link occupancy), and the statistics. Restoring that
// vector into a freshly constructed machine reproduces every subsequent
// observable — stats reports, memory images, sweep rows, conformance
// verdicts — byte for byte, under the dense loop, the fast-forward
// scheduler and the parallel engines alike (the differential tests
// enforce this). At quiescence the transient sections are simply empty.
//
// Encoding is deterministic: no Go map appears anywhere in the serialized
// types (gob iterates maps in random order), every keyed collection is a
// slice sorted by its key, and identical machines therefore encode to
// identical bytes.
package snapshot

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"mcmsim/internal/cache"
	"mcmsim/internal/coherence"
	"mcmsim/internal/core"
	"mcmsim/internal/cpu"
	"mcmsim/internal/isa"
	"mcmsim/internal/memsys"
	"mcmsim/internal/network"
)

// FormatVersion identifies the snapshot layout. Readers reject snapshots
// written by a different version instead of misinterpreting them.
//
// History:
//
//	1 — quiescent-only machines (all transient sections absent).
//	2 — mid-flight machines: in-flight messages, MSHR/ROB/LSU/directory
//	    transients, pending scheduled writes; ProcState.LSU widened from
//	    bare statistics to the full load/store-unit state.
//	3 — histograms as buckets: stats.HistogramState carries one count
//	    per distinct value in ascending order (Values/Counts) instead of
//	    the raw Samples, so the bytes no longer depend on whether a
//	    report sorted the samples first.
//	4 — one message type fewer (the shard engine's scheduled-write
//	    self-delivery is gone), so network.State.Hops is one entry
//	    shorter; Config no longer records DenseLoop, so a restored
//	    machine runs the wake schedule.
//	5 — Config no longer records the store-buffer forwarding latency or
//	    a per-cycle bound on the address unit, which no machine set: a
//	    forward takes one cycle and the address unit is unbounded.
const FormatVersion = 5

// ErrInvalid marks every failure to read or restore a snapshot: a foreign
// or corrupt stream, another format version, or a machine state that
// violates the invariants the simulator relies on (sim.Restore wraps its
// errors in it). Callers test for it with errors.Is.
var ErrInvalid = errors.New("snapshot: invalid")

// magic guards against feeding arbitrary gob streams to Read.
const magic = "mcmsim-snapshot"

// Config mirrors sim.Config in a map-free, deterministic form. (The sim
// package converts to and from this; snapshot cannot import sim.)
type Config struct {
	Procs     int
	Model     core.Model
	Tech      core.Technique
	Protocol  coherence.Protocol
	LineWords uint64

	NetLatency uint64
	MemLatency uint64

	Topo       string
	HopLatency uint64
	LinkGap    uint64

	Cache cache.Config
	CPU   cpu.Config

	NST         bool
	UncachedRMW []uint64 // ascending; the enabled addresses only

	MemModules   int
	DirBandwidth int
	DirPointers  int
	MaxCycles    uint64
}

// Label is one program label (the isa.Program Labels map, sorted by name).
type Label struct {
	Name   string
	Target int
}

// ProgramState is one processor's program.
type ProgramState struct {
	Instrs []isa.Instruction
	Labels []Label
}

// ProcState bundles one processor's serialized state: its program, its
// pipeline state (reorder buffer included) and its load/store unit
// (queues, speculative buffers and statistics).
type ProcState struct {
	Prog ProgramState
	CPU  cpu.State
	LSU  core.LSUState
}

// ScheduledWriteState is one external write not yet performed by the
// harness agent (mirrors sim.ScheduledWrite; snapshot cannot import sim).
type ScheduledWriteState struct {
	Cycle uint64
	Addr  uint64
	Value int64
}

// Machine is the complete serialized state of a machine, mid-flight
// included.
type Machine struct {
	Config Config

	Cycle         uint64
	BaseCycle     uint64
	FastForwarded uint64

	Net    network.State
	Mem    memsys.State
	Dirs   []coherence.State
	Caches []cache.SavedState
	Procs  []ProcState

	// PendingWrites are the scheduled external writes still due, in schedule
	// order; AgentOutstanding counts writes sent but not yet acknowledged by
	// the directory. Both are zero at quiescence.
	PendingWrites    []ScheduledWriteState
	AgentOutstanding int
}

// envelope is the on-disk framing: magic and version first, so Read can
// reject foreign or stale streams before decoding the machine.
type envelope struct {
	Magic   string
	Version int
	Machine Machine
}

// Write encodes the machine to w.
func Write(w io.Writer, m *Machine) error {
	return gob.NewEncoder(w).Encode(envelope{Magic: magic, Version: FormatVersion, Machine: *m})
}

// Read decodes a machine from r, validating the framing.
func Read(r io.Reader) (*Machine, error) {
	var e envelope
	if err := gob.NewDecoder(r).Decode(&e); err != nil {
		return nil, fmt.Errorf("%w: decode: %w", ErrInvalid, err)
	}
	if e.Magic != magic {
		return nil, fmt.Errorf("%w: not a machine snapshot (magic %q)", ErrInvalid, e.Magic)
	}
	if e.Version != FormatVersion {
		return nil, fmt.Errorf("%w: format version %d, this build reads %d", ErrInvalid, e.Version, FormatVersion)
	}
	return &e.Machine, nil
}

// WriteFile encodes the machine to a file.
func WriteFile(path string, m *Machine) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := Write(bw, m); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile decodes a machine from a file.
func ReadFile(path string) (*Machine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(bufio.NewReader(f))
}
