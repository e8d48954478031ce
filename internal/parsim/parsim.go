// Package parsim is the parallel shard engine for sim.System: it
// partitions the machine into node shards (each processor with its LSU and
// private cache, each home directory with its memory bank, the external
// write agent) and advances them on separate goroutines in windows,
// exchanging messages at a deterministic barrier between windows.
//
// Safety: shards share no mutable state — every cross-shard interaction is
// a network message, and every send is delivered at least W = network
// latency cycles after it is made. That holds by construction: a
// network.Port send names only its departure, and the topology adds at
// least its minimum delay. A message sent anywhere in window [T, T+W)
// therefore delivers at or after T+W: no shard can observe, during such a
// conservative window, anything another shard does in that window, so
// stepping them concurrently is indistinguishable from stepping them in
// the sequential loop's order. The external-write agent's shard performs
// its scheduled writes in its own writes phase; its next write is its
// node wake, like any other node's. Every window is exactly W cycles long,
// so nothing is ever undone.
//
// Determinism: the barrier (network.Exchange) sorts the window's sends by
// the position the sequential loop would have sent them at — (cycle, step
// phase, component rank or handled-message seq, per-endpoint ordinal) — and
// assigns global sequence numbers in that order, so each endpoint's
// (deliver, seq) delivery order is byte-for-byte the sequential one. Every
// stats counter, halt cycle, memory image and report is identical for any
// worker count, enforced by the differential tests in this package and
// `make differential`.
//
// The engine composes with the fast-forward scheduler at two levels:
// inside a window each shard skips straight between its own event cycles,
// and between windows the engine jumps the global clock over stretches
// where no shard has any event. It ignores Config.DenseLoop: the dense
// loop is System.Run's reference mode, not an engine mode. DeclineReason
// names the configurations the engine leaves to the sequential loop.
//
// Run starts min(par, shards)-1 goroutines besides its caller; there is no
// process-wide cap, so callers size par to the host. The batch front ends
// (sweep, conform, the farm) never shard: they run many small simulations
// at once, where the job pool already fills the host.
package parsim

import (
	"fmt"
	"strings"
	"sync"

	"mcmsim/internal/network"
	"mcmsim/internal/sim"
)

// shardStats is one shard's scheduler-observability record (the -schedstats
// report). Each entry is written only by the goroutine running that shard
// and read by the coordinator after the window barrier.
type shardStats struct {
	steps     uint64 // cycles actually stepped
	skipped   uint64 // cycles jumped by the shard-local fast-forward
	windows   uint64 // windows the shard was dispatched in
	idleTails uint64 // dispatched windows the shard finished early (barrier stall)
	// activeUntil is 1 + the last cycle the shard had work at — the exact
	// cycle the sequential loop would have stopped at is the max over
	// shards (see finishCycle).
	activeUntil uint64
}

type engine struct {
	s      *sim.System
	shards []*sim.NodeShard
	eps    []*network.Endpoint
	x      *network.Exchange
	st     []shardStats

	from, to uint64 // current dispatch range [from, to)

	tasks   chan int
	wg      sync.WaitGroup
	workers int // goroutines total, including the caller

	windows     uint64
	globalJumps uint64
}

// minLookahead is the shortest network lookahead the engine windows.
// Shorter windows pay a barrier every few cycles and lose to the
// sequential loop: on a 16-CPU mesh with 1-cycle hops (MeshShards), 2
// workers took 3.89 ms against 2.02 ms sequentially on a 2-vCPU host.
const minLookahead = 8

// DeclineReason reports why Run leaves s to the sequential loop, or ""
// when the engine runs it. Every declined case is sequential-only by
// construction:
//
//   - fewer than two workers: nothing to overlap;
//   - zero minimum network delay: the sequential loop delivers a
//     zero-latency send mid-phase of the cycle it is made in, which no
//     window barrier can reproduce;
//   - a minimum network delay below minLookahead: windows that short
//     lose to the sequential loop;
//   - trace hooks: they observe whole-machine state every cycle,
//     undefined while shards sit at different local times.
//
// Every machine has at least two shards (a home module and the external
// write agent), so there is always something to overlap.
func DeclineReason(s *sim.System, par int) string {
	switch {
	case par < 2:
		return fmt.Sprintf("par=%d: sharding needs at least 2 workers", par)
	case s.Net.Latency() == 0:
		return "zero network lookahead: a zero-latency send lands mid-cycle"
	case s.Net.Latency() < minLookahead:
		return fmt.Sprintf("network lookahead %d below %d cycles: windows that short lose to the sequential loop", s.Net.Latency(), minLookahead)
	case len(s.TraceHooks) > 0:
		return "trace hooks observe the whole machine every cycle"
	}
	return ""
}

// Drive advances s to completion with up to par shard goroutines, falling
// back to the sequential loop (s.Run) wherever Run declines.
func Drive(s *sim.System, par int) (uint64, error) {
	if halt, handled, err := Run(s, par); handled {
		return halt, err
	}
	return s.Run()
}

// Run advances s to completion with up to par shard goroutines. It reports
// handled=false when DeclineReason is non-empty (the caller then falls
// back to the sequential loop, as Drive does); otherwise its results —
// halt cycle, error, every observable stat — are identical to the
// sequential loop's.
// Deliveries already in flight (a machine restored from a mid-flight
// snapshot) are fine: the exchange absorbs them into the shard inboxes.
func Run(s *sim.System, par int) (halt uint64, handled bool, err error) {
	if DeclineReason(s, par) != "" {
		return 0, false, nil
	}
	shards := s.Shards()
	w := s.Net.Latency()
	e := &engine{
		s:      s,
		shards: shards,
		eps:    make([]*network.Endpoint, len(shards)),
		x:      network.NewExchange(s.Net),
		st:     make([]shardStats, len(shards)),
		tasks:  make(chan int, len(shards)),
	}
	for i, sh := range shards {
		e.eps[i] = e.x.Endpoint(sh.NodeID(), sh.Rank(), sh.Handler())
		sh.BindPort(e.eps[i])
	}
	e.workers = min(par, len(shards))
	for k := 1; k < e.workers; k++ {
		go func() {
			for i := range e.tasks {
				e.runShard(i)
				e.wg.Done()
			}
		}()
	}
	teardown := func() {
		close(e.tasks)
		for _, sh := range e.shards {
			sh.BindPort(s.Net)
		}
		s.ParReport = e.report()
		e.x.Close()
	}

	start := s.Cycle
	limit := s.BaseCycle() + s.Cfg.MaxCycles
	work := make([]int, 0, len(shards))
	for !e.done() {
		if s.Cycle-s.BaseCycle() > s.Cfg.MaxCycles {
			teardown()
			return 0, true, fmt.Errorf("sim: no convergence after %d cycles\n%s", s.Cfg.MaxCycles, s.Dump())
		}
		t := s.Cycle
		end := min(t+w, limit+1)
		// Global fast-forward: jump the clock to the earliest event of any
		// shard (mirroring the sequential loop's horizon, including its
		// deadlock jump past the cycle budget), and dispatch only the
		// shards with an event inside this window.
		horizon, any := e.globalHorizon(t)
		if !any {
			horizon = limit + 1
		}
		if horizon > t {
			horizon = min(horizon, limit+1)
			s.FastForwarded += horizon - t
			s.Cycle = horizon
			e.globalJumps++
			continue
		}
		work = work[:0]
		for i, sh := range e.shards {
			if c, ok := sh.NextEvent(t, e.eps[i]); ok && c < end {
				work = append(work, i)
			}
		}
		e.windows++
		e.from, e.to = t, end
		e.dispatch(work)
		e.x.Barrier()
		s.Cycle = end
	}

	// The machine went quiescent somewhere inside the last window; rewind
	// the clock to the exact cycle the sequential loop exits at (one past
	// the last cycle any shard had work), so warmed-cache phase chaining
	// (LoadPrograms) sees identical absolute time.
	s.Cycle = e.finishCycle(start)
	teardown()
	return s.HaltCycle() - s.BaseCycle(), true, nil
}

// dispatch fans the window's shard list out to the worker pool; the calling
// goroutine drains alongside the extra workers. Returns after every shard
// finished its window (the barrier's mutual-exclusion edge).
func (e *engine) dispatch(work []int) {
	e.wg.Add(len(work))
	for _, i := range work {
		e.tasks <- i
	}
	for {
		select {
		case i := <-e.tasks:
			e.runShard(i)
			e.wg.Done()
		default:
			e.wg.Wait()
			return
		}
	}
}

// runShard advances one shard through the current dispatch range, stepping
// only the cycles where the shard provably has work.
func (e *engine) runShard(i int) {
	sh, ep, st := e.shards[i], e.eps[i], &e.st[i]
	for now := e.from; now < e.to; {
		c, ok := sh.NextEvent(now, ep)
		if ok && c <= now {
			st.activeUntil = now + 1
			sh.StepCycle(now, ep)
			st.steps++
			now++
			continue
		}
		next := e.to
		if ok && c < next {
			next = c
		}
		st.skipped += next - now
		if next == e.to {
			st.idleTails++
		}
		now = next
	}
	st.windows++
}

// globalHorizon returns the earliest event cycle across all shards at or
// after t (single-threaded; runs between windows).
func (e *engine) globalHorizon(t uint64) (uint64, bool) {
	var best uint64
	any := false
	for i, sh := range e.shards {
		if c, ok := sh.NextEvent(t, e.eps[i]); ok {
			if c <= t {
				return t, true
			}
			if !any || c < best {
				best, any = c, true
			}
		}
	}
	return best, any
}

// done mirrors System.Done at a window boundary: every shard quiescent and
// no message anywhere in flight (outboxes are empty between windows, so the
// inboxes hold the entire in-flight set).
func (e *engine) done() bool {
	for _, sh := range e.shards {
		if !sh.Quiescent() {
			return false
		}
	}
	return e.x.PendingTotal() == 0
}

// finishCycle computes the exact cycle the sequential loop would have
// exited at: one past the last cycle any shard had work (state can only
// change on a cycle a shard's NextEvent flags, so from that point on Done
// held), but never before the run started.
func (e *engine) finishCycle(start uint64) uint64 {
	out := start
	for i := range e.st {
		out = max(out, e.st[i].activeUntil)
	}
	return out
}

// report renders the scheduler-observability summary (mcsim -schedstats).
func (e *engine) report() string {
	var b strings.Builder
	var steps, skipped uint64
	for i := range e.st {
		steps += e.st[i].steps
		skipped += e.st[i].skipped
	}
	fmt.Fprintf(&b, "parsim: shards=%d workers=%d window=%d windows=%d exchanged=%d global_jumps=%d ff_cycles=%d shard_steps=%d shard_skipped=%d\n",
		len(e.shards), e.workers, e.s.Net.Latency(), e.windows, e.x.Exchanged, e.globalJumps, e.s.FastForwarded, steps, skipped)
	for i, sh := range e.shards {
		st := &e.st[i]
		fmt.Fprintf(&b, "  %-6s windows=%d steps=%d skipped=%d idle_tails=%d delivered=%d sent=%d\n",
			sh.Label(), st.windows, st.steps, st.skipped, st.idleTails, e.eps[i].Received, e.eps[i].Sent())
	}
	return b.String()
}
