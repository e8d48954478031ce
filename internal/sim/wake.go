package sim

import (
	"math/bits"

	"mcmsim/internal/network"
)

// This file is the sequential loop's wake schedule. The machine is the
// node partition of shards.go — node i is processor i with its LSU and
// cache, node P+j is home module j, node P+M is the external-write agent
// — and every processor and home node keeps one wake time: the earliest
// cycle at which its own components can act without a new delivery. A
// stepped cycle ticks only the nodes whose wake has come or that one of
// the cycle's deliveries reached, phase by phase in Step's order and, in
// each phase, in ascending node order, so every send gets the sequence
// number and mesh link booking Step gives it. A node left out has a wake
// after now and received nothing, so by the NextWake contract each of its
// ticks would have changed nothing, statistics included. The agent node
// keeps no wake slot: its wake (nextWriteAt, the next scheduled write) is
// a term of the horizon, its tick is the writes phase (sendDueWrites, a
// no-op when nothing is due), and its deliveries only count completions.

// never is the wake of a node that only a delivery can wake.
const never = ^uint64(0)

// nodeWake is node i's wake at cycle now, never when it has none.
func (s *System) nodeWake(i int, now uint64) uint64 {
	if w, ok := s.nodes[i].wake(now); ok {
		return w
	}
	return never
}

// wakeAll recomputes every node's wake. Run and RunUntil call it on
// entry, because LoadPrograms, Restore, Preload or direct Step calls may
// have changed any node since the schedule last looked.
func (s *System) wakeAll() {
	for i := range s.wake {
		s.wake[i] = s.nodeWake(i, s.Cycle)
	}
}

// markAwake is the delivery hook: a node that receives a message ticks
// for the rest of the cycle.
func (s *System) markAwake(id network.NodeID) {
	if i := int(id); i < len(s.wake) {
		s.awake[i>>6] |= 1 << (i & 63)
	}
}

// advance moves the clock forward once, never past limit: it steps the
// current cycle when a node is due, a delivery is due or a scheduled write
// falls due, and otherwise jumps to the horizon — the earliest node wake,
// delivery or scheduled write. Its scan marks the due nodes awake for
// stepAwake. A machine with none of the three (yet not Done) is
// deadlocked: the clock jumps past the cycle budget so the caller reports
// the no-convergence error at the cycle the dense loop would.
func (s *System) advance(limit uint64) {
	now := s.Cycle
	horizon := s.baseCycle + s.Cfg.MaxCycles + 1
	due := false
	for i, w := range s.wake {
		if w <= now {
			s.awake[i>>6] |= 1 << (i & 63)
			due = true
		} else if w < horizon {
			horizon = w
		}
	}
	if c, ok := s.nextWriteAt(); ok {
		if c <= now {
			due = true
		} else if c < horizon {
			horizon = c
		}
	}
	if c, ok := s.Net.NextDelivery(); ok {
		if c <= now {
			due = true
		} else if c < horizon {
			horizon = c
		}
	}
	if due {
		s.stepAwake(now)
		return
	}
	horizon = min(horizon, limit)
	s.FastForwarded += horizon - now
	s.Cycle = horizon
}

// stepAwake is Step restricted to the awake nodes: on entry the due ones,
// then also every node a delivery reaches. Only the ticked nodes' wakes
// can have moved, so only theirs are recomputed.
func (s *System) stepAwake(now uint64) {
	s.sendDueWrites(now)
	var k int
	s.ticked, k = s.awakeNodes(s.ticked[:0])
	for _, i := range s.ticked[:k] {
		s.Procs[i].TickFrontend(now)
	}
	s.Net.DeliverWaking(now, s.markAwake)
	s.ticked, k = s.awakeNodes(s.ticked[:0])
	procs, homes := s.ticked[:k], s.ticked[k:]
	for _, i := range homes {
		s.Dirs[i-len(s.Procs)].Tick(now)
	}
	for _, i := range procs {
		s.Caches[i].Tick(now)
	}
	for _, i := range procs {
		s.LSUs[i].TickComplete(now)
	}
	for _, i := range procs {
		s.Procs[i].TickExecute(now)
	}
	for _, i := range procs {
		s.Procs[i].TickRetire(now)
	}
	for _, i := range procs {
		s.LSUs[i].TickIssue(now)
	}
	for _, h := range s.TraceHooks {
		h(s, now)
	}
	clear(s.awake)
	for _, i := range s.ticked {
		s.wake[i] = s.nodeWake(i, now+1)
	}
	s.NodeTicks += uint64(len(s.ticked))
	s.Cycle = now + 1
}

// awakeNodes appends the awake nodes to dst in ascending order and reports
// how many of them are processor nodes (they come first).
func (s *System) awakeNodes(dst []int) ([]int, int) {
	procs := 0
	for w, word := range s.awake {
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if i < len(s.Procs) {
				procs++
			}
			dst = append(dst, i)
		}
	}
	return dst, procs
}
