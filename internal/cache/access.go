package cache

import (
	"fmt"

	"mcmsim/internal/network"
)

// Access issues one request against the cache at cycle now. The returned
// Result tells the load/store unit whether the access hit (completion
// scheduled), missed (request sent), merged with an in-flight fill, was a
// discarded prefetch, or must be retried.
func (c *Cache) Access(req Request, now uint64) Result {
	if c.bypass {
		return c.bypassAccess(req, now)
	}
	lineAddr := c.geom.LineOf(req.Addr)
	l := c.lookup(lineAddr)
	m := c.mshrs[lineAddr]
	if _, wbPending := c.wb[lineAddr]; wbPending && m == nil {
		// A victim writeback for this line is still in flight; re-requesting
		// now would race the directory's view of ownership. Stall until the
		// writeback is acknowledged.
		c.wbStalls.Inc()
		if req.Kind == ReqPrefetch || req.Kind == ReqPrefetchEx {
			return PrefetchDropped
		}
		return Blocked
	}

	switch req.Kind {
	case ReqPrefetch, ReqPrefetchEx:
		return c.accessPrefetch(req, lineAddr, l, m, now)
	case ReqRead:
		if l != nil {
			l.lastUse = c.useClock
			c.useClock++
			c.schedule(req, now)
			c.readHits.Inc()
			return Hit
		}
		if m != nil {
			m.waiters = append(m.waiters, waiter{req: req})
			c.readMerges.Inc()
			return Merged
		}
		return c.startMiss(req, lineAddr, false, false, now)
	case ReqWrite, ReqRMW, ReqReadEx:
		if c.proto == ProtoUpdate {
			if req.Kind == ReqReadEx {
				panic("cache: ReqReadEx is not available under the update protocol")
			}
			return c.accessWriteUpdate(req, lineAddr, l, m, now)
		}
		if l != nil && writableState(l.state) {
			l.lastUse = c.useClock
			c.useClock++
			c.schedule(req, now)
			c.writeHits.Inc()
			return Hit
		}
		if m != nil {
			// Merge with the in-flight fill. If the fill is only shared the
			// write cannot perform from it; escalate to exclusive after the
			// fill installs.
			if !m.exclusive {
				m.escalate = true
			}
			m.waiters = append(m.waiters, waiter{req: req})
			c.writeMerges.Inc()
			return Merged
		}
		// A Shared copy is insufficient for a write: request exclusivity.
		// The directory will not invalidate the requester, and the data
		// response refreshes our copy.
		return c.startMiss(req, lineAddr, true, false, now)
	default:
		panic(fmt.Sprintf("cache: unknown request kind %v", req.Kind))
	}
}

// accessPrefetch handles the paper's hardware-controlled non-binding
// prefetches: probe the cache; discard if the line is already present with
// sufficient permission or already being fetched; otherwise start a fill
// with no waiters.
func (c *Cache) accessPrefetch(req Request, lineAddr uint64, l *line, m *mshr, now uint64) Result {
	if c.proto == ProtoUpdate && req.Kind == ReqPrefetchEx {
		// Read-exclusive prefetch is not possible under an update protocol
		// (paper §3.1); treat as dropped so the issuer wastes no request.
		c.prefetchDropped.Inc()
		return PrefetchDropped
	}
	wantEx := req.Kind == ReqPrefetchEx
	if m != nil {
		// The line is already being fetched; a duplicate request must not
		// be sent out (§3.2). An exclusive prefetch overlapping a shared
		// fill records its intent so the fill upgrades immediately after
		// installing - otherwise the store it anticipates would pay a full
		// second transaction later.
		if wantEx && !m.exclusive {
			m.escalate = true
		}
		c.prefetchDropped.Inc()
		return PrefetchDropped
	}
	if l != nil {
		sufficient := !wantEx || writableState(l.state)
		if sufficient {
			c.prefetchDropped.Inc()
			return PrefetchDropped
		}
		// Shared copy but an exclusive prefetch: upgrade via GetX.
		return c.startMiss(req, lineAddr, true, true, now)
	}
	return c.startMiss(req, lineAddr, wantEx, true, now)
}

// accessWriteUpdate handles stores and RMWs under the update protocol:
// writes go to the directory as word updates (write-through with respect to
// the home memory) and complete when the directory's done message plus all
// sharer acks arrive. A store to an uncached line first fills the line in
// shared state (write-allocate), then sends the update.
func (c *Cache) accessWriteUpdate(req Request, lineAddr uint64, l *line, m *mshr, now uint64) Result {
	if req.Kind == ReqRMW {
		// Atomics serialize at the directory under the update protocol.
		c.sendUpdateReq(req, now)
		c.Stats.Counter("rmw_at_directory").Inc()
		return Miss
	}
	if l != nil {
		c.sendUpdateReq(req, now)
		c.Stats.Counter("write_throughs").Inc()
		return Miss // cost of a directory round trip, like a miss
	}
	if m != nil {
		m.waiters = append(m.waiters, waiter{req: req})
		c.writeMerges.Inc()
		return Merged
	}
	// Write-allocate: fill shared first; the fill completion path sends the
	// update for the waiting store.
	return c.startMiss(req, lineAddr, false, false, now)
}

func (c *Cache) sendUpdateReq(req Request, now uint64) {
	x := &updateXact{req: req, word: req.Addr}
	c.xacts = append(c.xacts, x)
	var rmwWire uint64
	if req.Kind == ReqRMW {
		rmwWire = uint64(req.RMW) + 1
	}
	c.net.Post(network.Message{
		Type: network.MsgUpdateReq, Src: c.ID, Dst: c.homeFor(c.geom.LineOf(req.Addr)),
		Line: c.geom.LineOf(req.Addr), Word: req.Addr, Value: req.Data, SeqNo: rmwWire,
	}, now)
}

// startMiss allocates an MSHR and sends the fill request to the directory.
func (c *Cache) startMiss(req Request, lineAddr uint64, exclusive, prefetch bool, now uint64) Result {
	if len(c.mshrs) >= c.cfg.MaxMSHRs {
		c.mshrBlocked.Inc()
		return Blocked
	}
	if _, dup := c.mshrs[lineAddr]; dup {
		panic(fmt.Sprintf("cache %d: duplicate fill request for line %#x", c.ID, lineAddr))
	}
	m := &mshr{lineAddr: lineAddr, exclusive: exclusive}
	if !prefetch {
		m.waiters = append(m.waiters, waiter{req: req})
	}
	c.mshrs[lineAddr] = m
	typ := network.MsgGetS
	if exclusive {
		typ = network.MsgGetX
	}
	c.net.Post(network.Message{
		Type: typ, Src: c.ID, Dst: c.homeFor(lineAddr), Line: lineAddr,
	}, now)
	if prefetch {
		c.prefetchesIssued.Inc()
	} else {
		c.misses.Inc()
	}
	return Miss
}

// schedule queues a hit completion HitLatency cycles in the future. The
// access re-validates its hit at completion time (the line may have been
// invalidated or recalled in the window); if the line was lost the access
// restarts as a miss. The line is pinned against replacement until the
// completion fires.
func (c *Cache) schedule(req Request, now uint64) {
	c.pinned[c.geom.LineOf(req.Addr)]++
	c.completions = append(c.completions, completion{at: now + c.cfg.HitLatency, req: req})
}

// Tick processes due hit completions and retries stalled installs. Call
// once per cycle after network delivery so that fills arriving this cycle
// are visible.
func (c *Cache) Tick(now uint64) {
	if len(c.retryInstalls) > 0 {
		retry := c.retryInstalls
		c.retryInstalls = nil
		for _, ms := range retry {
			c.installFill(ms, now)
		}
	}
	if len(c.completions) == 0 {
		return
	}
	remaining := c.completions[:0]
	for _, comp := range c.completions {
		if comp.at > now {
			remaining = append(remaining, comp)
			continue
		}
		c.unpin(c.geom.LineOf(comp.req.Addr))
		c.finishHit(comp.req, now)
	}
	c.completions = remaining
}

func (c *Cache) unpin(lineAddr uint64) {
	if n := c.pinned[lineAddr]; n <= 1 {
		delete(c.pinned, lineAddr)
	} else {
		c.pinned[lineAddr] = n - 1
	}
}

// finishHit completes a previously scheduled hit, re-validating permission.
func (c *Cache) finishHit(req Request, now uint64) {
	lineAddr := c.geom.LineOf(req.Addr)
	l := c.lookup(lineAddr)
	needsEx := req.Kind == ReqWrite || req.Kind == ReqRMW || req.Kind == ReqReadEx
	lost := l == nil
	if !lost && needsEx && c.proto != ProtoUpdate && !writableState(l.state) {
		lost = true
	}
	if lost {
		// The line was invalidated or recalled between issue and completion.
		// Restart the access as a miss (merging if a fill is now pending).
		c.Stats.Counter("hits_lost_to_coherence").Inc()
		if _, wbPending := c.wb[lineAddr]; wbPending && c.mshrs[lineAddr] == nil {
			// The line was evicted out from under the access and its
			// writeback is in flight; retry after the ack.
			c.pinned[lineAddr]++
			c.completions = append(c.completions, completion{at: now + 1, req: req})
			return
		}
		if m := c.mshrs[lineAddr]; m != nil {
			if needsEx && !m.exclusive {
				m.escalate = true
			}
			m.waiters = append(m.waiters, waiter{req: req})
			return
		}
		if c.startMiss(req, lineAddr, needsEx, false, now) == Blocked {
			// No MSHR free: retry next cycle via the completion queue.
			c.pinned[lineAddr]++
			c.completions = append(c.completions, completion{at: now + 1, req: req})
		}
		return
	}
	off := c.geom.Offset(req.Addr)
	switch req.Kind {
	case ReqRead, ReqReadEx:
		c.client.AccessComplete(req.ID, l.data[off], now)
	case ReqWrite:
		l.state = Modified // MESI: a store silently upgrades Exclusive
		l.data[off] = req.Data
		c.client.AccessComplete(req.ID, req.Data, now)
	case ReqRMW:
		l.state = Modified
		old := l.data[off]
		l.data[off] = req.RMW.Apply(old, req.Data)
		c.client.AccessComplete(req.ID, old, now)
	default:
		panic("cache: prefetch in completion queue")
	}
}
