package sim

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"mcmsim/internal/cache"
	"mcmsim/internal/coherence"
	"mcmsim/internal/core"
	"mcmsim/internal/cpu"
	"mcmsim/internal/isa"
	"mcmsim/internal/memsys"
	"mcmsim/internal/network"
)

// SnapshotVersion identifies the machine-snapshot layout (Machine and
// everything it holds) that this build reads and writes. Readers reject
// snapshots of another version instead of misinterpreting them, and the
// farm handshake exchanges it, so a fleet whose members disagree cannot
// ship checkpoints and is rejected before any decoding is attempted.
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
//	    shorter; the config no longer records DenseLoop, so a restored
//	    machine runs the wake schedule.
//	5 — the config no longer records the store-buffer forwarding latency
//	    or a per-cycle bound on the address unit, which no machine set: a
//	    forward takes one cycle and the address unit is unbounded.
//	6 — the machine holds Config and ScheduledWrite, not copies, so the
//	    config's fields follow Config's order; Snapshot zeroes DenseLoop.
//	7 — the gob envelope gives way to a fixed header (magic, version,
//	    payload length, CRC-32C of the payload) in front of the gob
//	    encoding of the Machine, which is unchanged (internal/snapshot).
const SnapshotVersion = 7

// ErrInvalidSnapshot marks every failure to read or restore a snapshot: a
// foreign or corrupt stream, another format version, or a machine state
// that violates the invariants the simulator relies on. Callers test for
// it with errors.Is.
var ErrInvalidSnapshot = errors.New("snapshot: invalid")

// Machine is the complete serialized state of a machine, mid-flight
// included (Snapshot lists what it captures); internal/snapshot writes and
// reads it. No Go map appears anywhere in it, since gob iterates maps in
// random order: every keyed collection is a slice sorted by its key, so
// identical machines encode to identical bytes.
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

	// PendingWrites are the scheduled external writes still due, in
	// schedule order; AgentOutstanding counts writes sent but not yet
	// acknowledged by the directory. Both are zero at quiescence.
	PendingWrites    []ScheduledWrite
	AgentOutstanding int
}

// ProcState bundles one processor's serialized state: its program, its
// pipeline state (reorder buffer included) and its load/store unit
// (queues, speculative buffers and statistics).
type ProcState struct {
	Prog ProgramState
	CPU  cpu.State
	LSU  core.LSUState
}

// ProgramState is one processor's program.
type ProgramState struct {
	Instrs []isa.Instruction
	Labels []Label
}

// Label is one program label (the isa.Program Labels map, sorted by name).
type Label struct {
	Name   string
	Target int
}

// Snapshot serializes the machine's complete state between two cycles,
// mid-flight included: besides the architectural state (memory image,
// cache arrays, directory state, registers, clocks, counters, statistics)
// it captures every transient structure by value — in-flight messages,
// MSHRs, recall transactions, reorder buffers, store buffers,
// speculative-load buffers, pending scheduled writes. Restore rebuilds a
// system that is byte-identical to this one for every subsequent output.
// Snapshot must not be called mid-cycle (from a trace hook).
func (s *System) Snapshot() (*Machine, error) {
	m := &Machine{
		Config:        s.Cfg,
		Cycle:         s.Cycle,
		BaseCycle:     s.baseCycle,
		FastForwarded: s.FastForwarded,
		Mem:           s.Mem.ExportState(),
	}
	m.Config.DenseLoop = false // a restored machine runs the wake schedule
	var err error
	if m.Net, err = s.Net.ExportState(); err != nil {
		return nil, err
	}
	for _, d := range s.Dirs {
		m.Dirs = append(m.Dirs, d.ExportState())
	}
	for _, c := range s.Caches {
		st, err := c.ExportState()
		if err != nil {
			return nil, err
		}
		m.Caches = append(m.Caches, st)
	}
	for i, p := range s.Procs {
		lsuSt, err := s.LSUs[i].ExportState()
		if err != nil {
			return nil, err
		}
		m.Procs = append(m.Procs, ProcState{
			Prog: exportProgram(p.Program()),
			CPU:  p.ExportState(),
			LSU:  lsuSt,
		})
	}
	m.PendingWrites = slices.Clone(s.writes[s.nextWrite:])
	m.AgentOutstanding = s.agent.outstanding
	return m, nil
}

// Restore builds a fresh System from a snapshot, resuming at exactly the
// captured cycle — mid-flight work, in-flight messages and pending
// scheduled writes included. Continue it exactly like the original (Run,
// or LoadPrograms + ScheduleWrites for the next phase of a quiescent
// snapshot). Restore never mutates or aliases the Machine, so many systems
// may be restored concurrently from one snapshot (the warmup cache does
// exactly that).
//
// A snapshot may come from a file or from the network, so Restore checks
// it before building anything: the configuration must describe a machine
// New can build within the bounds below, and every component validates
// its own section. Every failure wraps ErrInvalidSnapshot; no input
// panics.
func Restore(m *Machine) (*System, error) {
	s, err := restore(m)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidSnapshot, err)
	}
	return s, nil
}

// Bounds on a restored machine beyond Resolve's node limit, far above any
// machine the experiments build, so a hostile snapshot cannot make
// Restore allocate without limit.
const (
	maxRestoreWidth    = 4096    // fetch/retire width, ROB size, MSHRs
	maxRestoreSetSlots = 1 << 22 // sets × processors (4 bytes each)
	maxRestoreWays     = 64
	maxRestoreLine     = 1024 // words per line
)

func restore(m *Machine) (*System, error) {
	cfg, err := m.Config.Resolve()
	if err != nil {
		return nil, err
	}
	if err := checkConfig(m.Config, cfg.Procs); err != nil {
		return nil, err
	}
	if len(m.Procs) != cfg.Procs {
		return nil, fmt.Errorf("sim: snapshot has %d processor states for %d processors", len(m.Procs), cfg.Procs)
	}
	progs := make([]*isa.Program, cfg.Procs)
	for i := range m.Procs {
		if err := checkProgram(m.Procs[i].Prog); err != nil {
			return nil, fmt.Errorf("sim: processor %d: %w", i, err)
		}
		progs[i] = importProgram(m.Procs[i].Prog)
	}
	s := New(cfg, progs)
	if err := checkRefs(m, s.Cfg); err != nil {
		return nil, err
	}
	if err := s.Net.RestoreState(m.Net); err != nil {
		return nil, err
	}
	if err := s.Mem.RestoreState(m.Mem); err != nil {
		return nil, err
	}
	if len(m.Dirs) != len(s.Dirs) {
		return nil, fmt.Errorf("sim: snapshot has %d home modules for %d", len(m.Dirs), len(s.Dirs))
	}
	for i, d := range s.Dirs {
		if err := d.RestoreState(m.Dirs[i]); err != nil {
			return nil, err
		}
	}
	if len(m.Caches) != len(s.Caches) {
		return nil, fmt.Errorf("sim: snapshot has %d caches for %d", len(m.Caches), len(s.Caches))
	}
	for i, c := range s.Caches {
		if err := c.RestoreState(m.Caches[i]); err != nil {
			return nil, err
		}
	}
	for i, p := range s.Procs {
		if err := p.RestoreState(m.Procs[i].CPU); err != nil {
			return nil, err
		}
		if err := s.LSUs[i].RestoreState(m.Procs[i].LSU); err != nil {
			return nil, err
		}
	}
	s.writes = slices.Clone(m.PendingWrites)
	s.agent.outstanding = m.AgentOutstanding
	s.Cycle = m.Cycle
	s.baseCycle = m.BaseCycle
	s.FastForwarded = m.FastForwarded
	return s, nil
}

// checkConfig bounds a snapshot configuration and rejects what New would
// panic on that Resolve does not check, such as the cache geometry. procs
// is the resolved processor count, at least 1.
func checkConfig(c Config, procs int) error {
	bad := func(what string, v any) error { return fmt.Errorf("sim: snapshot config has %s %v", what, v) }
	switch {
	case c.MemModules < 0:
		return bad("home module count", c.MemModules)
	case c.Model > core.RCsc:
		return bad("consistency model", c.Model)
	case c.Protocol > coherence.ProtoMESI:
		return bad("protocol", c.Protocol)
	case c.LineWords > maxRestoreLine || c.LineWords&(c.LineWords-1) != 0:
		return bad("line size", c.LineWords)
	case c.Cache.Sets < 1 || c.Cache.Sets&(c.Cache.Sets-1) != 0 || c.Cache.Sets > maxRestoreSetSlots/procs:
		return bad("cache set count", c.Cache.Sets)
	case c.Cache.Ways < 1 || c.Cache.Ways > maxRestoreWays:
		return bad("cache associativity", c.Cache.Ways)
	case c.Cache.MaxMSHRs < 0 || c.Cache.MaxMSHRs > maxRestoreWidth:
		return bad("MSHR count", c.Cache.MaxMSHRs)
	case c.CPU.FetchWidth < 1 || c.CPU.FetchWidth > maxRestoreWidth:
		return bad("fetch width", c.CPU.FetchWidth)
	case c.CPU.RetireWidth < 1 || c.CPU.RetireWidth > maxRestoreWidth:
		return bad("retire width", c.CPU.RetireWidth)
	case c.CPU.ROBSize < 1 || c.CPU.ROBSize > maxRestoreWidth:
		return bad("reorder-buffer size", c.CPU.ROBSize)
	case c.DirBandwidth < 0 || c.DirPointers < 0:
		return bad("negative unit bound", []int{c.DirBandwidth, c.DirPointers})
	}
	return nil
}

// checkRefs rejects node ids, message types and line sizes the restored
// components would only trip over later, when a message is delivered or a
// line read: every message's type and endpoints, the directories' sharers
// and owners, and every array that holds a cache line. cfg is the built
// machine's (normalized) configuration.
func checkRefs(m *Machine, cfg Config) error {
	nodes := network.NodeID(cfg.Procs + cfg.MemModules + 1) // CPUs, homes, write agent
	cpus := network.NodeID(cfg.Procs)
	node := func(id network.NodeID) bool { return id >= 0 && id < nodes }
	line := func(d []int64) bool { return len(d) == 0 || uint64(len(d)) == cfg.LineWords }
	msg := func(ms network.MessageState) error {
		if !ms.Type.Valid() || !node(ms.Src) || !node(ms.Dst) || !node(ms.Requester) || !line(ms.Data) {
			return fmt.Errorf("sim: snapshot holds a malformed %v message %d -> %d", ms.Type, ms.Src, ms.Dst)
		}
		return nil
	}
	msgs := func(ms []network.MessageState) error {
		for _, x := range ms {
			if err := msg(x); err != nil {
				return err
			}
		}
		return nil
	}
	if err := msgs(m.Net.InFlight); err != nil {
		return err
	}
	for _, d := range m.Dirs {
		if err := msgs(d.Ingress); err != nil {
			return err
		}
		for _, l := range d.Lines {
			// Owner -1 is the directory's "no owner".
			if l.Owner < -1 || l.Owner >= cpus || slices.ContainsFunc(l.Sharers, func(id network.NodeID) bool { return id < 0 || id >= cpus }) {
				return fmt.Errorf("sim: snapshot directory line %#x names a node that is not a processor", l.Addr)
			}
			if l.PendingReq != nil {
				if err := msg(*l.PendingReq); err != nil {
					return err
				}
			}
			if err := msgs(l.WaitQ); err != nil {
				return err
			}
		}
	}
	for _, c := range m.Caches {
		for _, set := range c.Sets {
			for _, l := range set {
				if l.State > uint8(cache.Exclusive) || !line(l.Data) || (l.State != uint8(cache.Invalid) && len(l.Data) == 0) {
					return fmt.Errorf("sim: snapshot cache line %#x is malformed", l.Addr)
				}
			}
		}
		for _, ms := range c.MSHRs {
			if !line(ms.Data) || slices.ContainsFunc(ms.Deferred, func(d cache.DeferredEventState) bool { return !d.Type.Valid() || !node(d.Requester) }) {
				return fmt.Errorf("sim: snapshot fill for line %#x is malformed", ms.LineAddr)
			}
		}
		for _, wb := range c.Writebacks {
			if !line(wb.Data) {
				return fmt.Errorf("sim: snapshot writeback of line %#x is malformed", wb.LineAddr)
			}
		}
	}
	return nil
}

// checkProgram rejects instructions the pipeline cannot decode: unknown
// opcodes or atomics, and registers outside the register file.
func checkProgram(p ProgramState) error {
	for pc, in := range p.Instrs {
		if in.Op > isa.OpHalt || in.RMW > isa.RMWSwap ||
			in.Dst >= isa.NumRegs || in.Src >= isa.NumRegs || in.Src2 >= isa.NumRegs || in.Base >= isa.NumRegs {
			return fmt.Errorf("sim: snapshot program has an undecodable instruction at pc %d", pc)
		}
	}
	return nil
}

func exportProgram(p *isa.Program) ProgramState {
	st := ProgramState{Instrs: make([]isa.Instruction, len(p.Instrs))}
	copy(st.Instrs, p.Instrs)
	for name, target := range p.Labels {
		st.Labels = append(st.Labels, Label{Name: name, Target: target})
	}
	sort.Slice(st.Labels, func(i, j int) bool { return st.Labels[i].Name < st.Labels[j].Name })
	return st
}

func importProgram(st ProgramState) *isa.Program {
	p := &isa.Program{Instrs: make([]isa.Instruction, len(st.Instrs))}
	copy(p.Instrs, st.Instrs)
	if len(st.Labels) > 0 {
		p.Labels = make(map[string]int, len(st.Labels))
		for _, l := range st.Labels {
			p.Labels[l.Name] = l.Target
		}
	}
	return p
}
