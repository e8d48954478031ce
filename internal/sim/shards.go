package sim

import (
	"fmt"

	"mcmsim/internal/cache"
	"mcmsim/internal/coherence"
	"mcmsim/internal/core"
	"mcmsim/internal/cpu"
	"mcmsim/internal/network"
)

// This file partitions a System into node shards: the units the
// sequential loop's wake schedule ticks (wake.go) and the parallel shard
// engine (internal/parsim) runs on separate goroutines. A shard is a set
// of components that share no mutable state with any other shard — they
// interact only through network messages, whose one-way latency bounds
// how far a shard can run ahead privately. Three shard kinds cover the
// whole machine:
//
//   - one per processor: the CPU pipeline, its load/store unit and its
//     private cache (network node i);
//   - one per home module: the directory and its memory bank (node P+j; the
//     shared Memory is banked by the same line-interleaving that picks a
//     line's home, so module j only ever touches bank j);
//   - one for the external-write agent, which performs the scheduled
//     writes (node P+M).

type shardKind uint8

const (
	shardProc shardKind = iota
	shardDir
	shardAgent
)

// NodeShard is one independently-steppable partition of the machine.
// Between barriers a shard is owned by exactly one goroutine; all of its
// methods except accessors mutate only shard-private state plus the
// endpoint it is given.
type NodeShard struct {
	kind shardKind
	idx  int // proc or home-module index
	sys  *System

	proc  *cpu.Proc
	lsu   *core.LSU
	cache *cache.Cache
	dir   *coherence.Directory
}

// Shards returns the machine's node partition, in network-node order:
// processors, then home modules, then the agent. The shards are the ones
// the sequential loop schedules (System.nodes), so they always hold the
// live components, LoadPrograms included.
func (s *System) Shards() []*NodeShard {
	out := make([]*NodeShard, len(s.nodes))
	for i := range s.nodes {
		out[i] = &s.nodes[i]
	}
	return out
}

// partition builds the node partition of a freshly assembled machine.
func (s *System) partition() {
	s.nodes = make([]NodeShard, 0, len(s.Procs)+len(s.Dirs)+1)
	for i := range s.Procs {
		s.nodes = append(s.nodes, NodeShard{
			kind: shardProc, idx: i, sys: s,
			proc: s.Procs[i], lsu: s.LSUs[i], cache: s.Caches[i],
		})
	}
	for j := range s.Dirs {
		s.nodes = append(s.nodes, NodeShard{kind: shardDir, idx: j, sys: s, dir: s.Dirs[j]})
	}
	s.nodes = append(s.nodes, NodeShard{kind: shardAgent, sys: s})
}

// NodeID returns the network node the shard receives messages at.
func (sh *NodeShard) NodeID() network.NodeID {
	switch sh.kind {
	case shardProc:
		return network.NodeID(sh.idx)
	case shardDir:
		return network.NodeID(sh.sys.Cfg.Procs + sh.idx)
	default:
		return network.NodeID(sh.sys.Cfg.Procs + sh.sys.Cfg.MemModules)
	}
}

// Rank is the shard's index within its step phase — the tiebreak the
// sequential loop applies between same-phase components (it iterates them
// in index order), and therefore the major send-order key outside the
// deliver phase.
func (sh *NodeShard) Rank() uint64 {
	if sh.kind == shardAgent {
		return 0
	}
	return uint64(sh.idx)
}

// Handler returns the component that receives the shard's deliveries.
func (sh *NodeShard) Handler() network.Handler {
	switch sh.kind {
	case shardProc:
		return sh.cache
	case shardDir:
		return sh.dir
	default:
		return sh.sys.agent
	}
}

// Label names the shard in scheduler reports.
func (sh *NodeShard) Label() string {
	switch sh.kind {
	case shardProc:
		return fmt.Sprintf("proc%d", sh.idx)
	case shardDir:
		return fmt.Sprintf("home%d", sh.idx)
	default:
		return "agent"
	}
}

// BindPort points the shard's network-facing components at p — an Endpoint
// for the parallel run, the System's Network to restore the sequential path.
func (sh *NodeShard) BindPort(p network.Port) {
	switch sh.kind {
	case shardProc:
		sh.cache.SetPort(p)
	case shardDir:
		sh.dir.SetPort(p)
	default:
		sh.sys.agent.setPort(p)
	}
}

// StepCycle advances the shard one cycle, running its components in the
// same relative order System.Step runs them, with the endpoint's phase
// context set so every send is stamped with the position the sequential
// loop would have sent it at. Components on other shards cannot observe
// anything this does until the next barrier, and vice versa, because every
// cross-shard interaction is a message at least one full window away.
func (sh *NodeShard) StepCycle(now uint64, ep *network.Endpoint) {
	switch sh.kind {
	case shardAgent:
		ep.SetPhase(now, network.PhaseWrites)
		sh.sys.sendDueWrites(now)
		ep.DeliverDue(now)
	case shardDir:
		ep.SetPhase(now, network.PhaseDeliver)
		ep.DeliverDue(now)
		ep.SetPhase(now, network.PhaseDirTick)
		sh.dir.Tick(now)
	case shardProc:
		sh.proc.TickFrontend(now)
		ep.SetPhase(now, network.PhaseDeliver)
		ep.DeliverDue(now)
		ep.SetPhase(now, network.PhaseCacheTick)
		sh.cache.Tick(now)
		ep.SetPhase(now, network.PhaseLSUComplete)
		sh.lsu.TickComplete(now)
		ep.SetPhase(now, network.PhaseExecute)
		sh.proc.TickExecute(now)
		ep.SetPhase(now, network.PhaseRetire)
		sh.proc.TickRetire(now)
		ep.SetPhase(now, network.PhaseLSUIssue)
		sh.lsu.TickIssue(now)
	}
}

// wake reports the earliest cycle at which one of the node's own
// components can act without a new delivery; ok=false means only a
// delivery can wake it. A result at or before now means the node is due;
// the agent's wake is its next scheduled write, which may already be
// past. It is the one definition of "node is due" that the sequential
// loop and the shard engine share. It stops at the first component due
// now, asking the processor first: a frontend that can decode answers at
// once.
func (sh *NodeShard) wake(now uint64) (uint64, bool) {
	switch sh.kind {
	case shardAgent:
		return sh.sys.nextWriteAt()
	case shardDir:
		return sh.dir.NextWake(now)
	case shardProc:
		wake, ok := sh.proc.NextWake(now)
		if ok && wake <= now {
			return wake, true
		}
		if w, o := sh.cache.NextWake(now); o && (!ok || w < wake) {
			if w <= now {
				return w, true
			}
			wake, ok = w, true
		}
		if w, o := sh.lsu.NextWake(now); o && (!ok || w < wake) {
			wake, ok = w, true
		}
		return wake, ok
	}
	return 0, false
}

// NextEvent reports the earliest cycle ≥ some pending work for the shard:
// a component self-wake or an inbox delivery. A result at or before now
// means the shard is busy this cycle. ok=false means the shard cannot
// change state again until new messages arrive at a barrier. The same
// per-component NextWake contract the sequential loop relies on (a
// skipped tick is provably a no-op, stats included) makes the shard-local
// skip exact.
func (sh *NodeShard) NextEvent(now uint64, ep *network.Endpoint) (uint64, bool) {
	best, ok := ep.NextDelivery()
	if ok && best <= now {
		return best, true
	}
	if w, o := sh.wake(now); o && (!ok || w < best) {
		return w, true
	}
	return best, ok
}

// Quiescent reports the shard's contribution to System.Done: together with
// empty inboxes across all endpoints, all shards quiescent is exactly the
// sequential termination condition.
func (sh *NodeShard) Quiescent() bool {
	switch sh.kind {
	case shardProc:
		return sh.proc.Halted() && !sh.cache.PendingWork()
	case shardDir:
		return sh.dir.Quiescent()
	default:
		_, pending := sh.sys.nextWriteAt()
		return sh.sys.agent.idle() && !pending
	}
}

// HaltCycle returns the cycle the last processor halted at (absolute).
func (s *System) HaltCycle() uint64 {
	var last uint64
	for _, p := range s.Procs {
		if hc := p.HaltCycle; hc > last {
			last = hc
		}
	}
	return last
}
