package cache

import (
	"fmt"

	"mcmsim/internal/coherence"
	"mcmsim/internal/network"
)

// HandleMessage implements network.Handler for the processor-side cache.
func (c *Cache) HandleMessage(m *network.Message, now uint64) {
	switch m.Type {
	case network.MsgData:
		c.handleData(m, false, now)
	case network.MsgDataEx:
		c.handleData(m, true, now)
	case network.MsgInvAck:
		c.handleInvAck(m, now)
	case network.MsgInv:
		c.handleInv(m, now)
	case network.MsgUpdate:
		c.handleUpdate(m, now)
	case network.MsgUpdateAck:
		c.handleUpdateAck(m, now)
	case network.MsgUpdateDone:
		c.handleUpdateDone(m, now)
	case network.MsgRecallShare, network.MsgRecallInv:
		c.handleRecall(m, now)
	case network.MsgWBAck:
		delete(c.wb, m.Line)
	case network.MsgMemRdResp, network.MsgMemWrAck:
		c.handleBypassResponse(m, now)
	default:
		panic(fmt.Sprintf("cache %d: unexpected message %v", c.ID, m.Type))
	}
}

// handleData processes a fill response (shared or exclusive grant).
func (c *Cache) handleData(m *network.Message, exclusive bool, now uint64) {
	ms, ok := c.mshrs[m.Line]
	if !ok {
		panic(fmt.Sprintf("cache %d: fill for line %#x with no MSHR", c.ID, m.Line))
	}
	ms.dataArrived = true
	ms.data = append([]int64(nil), m.Data...)
	ms.grantVer = m.Tag
	ms.ackKnown = true
	if exclusive {
		ms.acksNeeded = m.AckCount
	} else {
		ms.acksNeeded = 0
	}
	ms.exclusive = exclusive
	if key := (ackKey{m.Line, m.Tag}); c.ackPool[key] > 0 {
		// Invalidation acks that raced ahead of the data response.
		ms.acksGot += c.ackPool[key]
		delete(c.ackPool, key)
	}
	if ms.fillComplete() {
		c.installFill(ms, now)
		return
	}
	if exclusive {
		// Ownership has arrived but invalidation acks are outstanding:
		// tell an Adve-Hill-style client (paper §6 comparator).
		c.notifyOwnership(ms, now)
	}
}

// notifyOwnership reports early exclusive ownership for the write-class
// waiters of an MSHR to a client that cares.
func (c *Cache) notifyOwnership(ms *mshr, now uint64) {
	ol, ok := c.client.(OwnershipListener)
	if !ok {
		return
	}
	for _, w := range ms.waiters {
		switch w.req.Kind {
		case ReqWrite, ReqRMW, ReqReadEx:
			ol.AccessOwnership(w.req.ID, now)
		}
	}
}

// handleInvAck counts an invalidation ack for a pending exclusive fill.
// Acks can arrive before the data response; they are pooled by tag until the
// MSHR learns its grant tag.
func (c *Cache) handleInvAck(m *network.Message, now uint64) {
	ms, ok := c.mshrs[m.Line]
	if ok && ms.dataArrived && ms.grantVer == m.Tag {
		ms.acksGot++
		if ms.fillComplete() {
			c.installFill(ms, now)
		}
		return
	}
	if ok {
		c.ackPool[ackKey{m.Line, m.Tag}]++
		return
	}
	panic(fmt.Sprintf("cache %d: InvAck for line %#x with no MSHR", c.ID, m.Line))
}

// installFill installs a completed fill: victimize a way, install the line,
// complete waiters in order, then apply any coherence events that arrived
// during the fill, in directory order (version-checked).
func (c *Cache) installFill(ms *mshr, now uint64) {
	state := Shared
	if ms.exclusive {
		// Under MESI an exclusive grant installs clean; the first store
		// upgrades it to Modified in place (below, or in finishHit). Under
		// MSI the grant installs dirty as before.
		if c.proto == coherence.ProtoMESI {
			state = Exclusive
		} else {
			state = Modified
		}
	}
	// An exclusive grant for a line we already hold shared is an upgrade:
	// refresh the resident copy in place rather than allocating a new way.
	l := c.lookup(ms.lineAddr)
	if l != nil {
		l.state = state
		l.data = ms.data
		l.grantVer = ms.grantVer
		l.lastUse = c.useClock
		c.useClock++
		delete(c.mshrs, ms.lineAddr)
	} else {
		if !c.victimize(ms.lineAddr, now) {
			// Every way in the set holds a line with an outstanding access
			// (paper footnote 3: such replacements must be delayed). Retry
			// the install next cycle; the MSHR stays allocated meanwhile.
			c.retryInstalls = append(c.retryInstalls, ms)
			c.Stats.Counter("install_retries").Inc()
			return
		}
		delete(c.mshrs, ms.lineAddr)
		l = &line{addr: ms.lineAddr, state: state, data: ms.data, grantVer: ms.grantVer, lastUse: c.useClock}
		c.useClock++
		set := c.set(c.setIndex(ms.lineAddr))
		placed := false
		for i, existing := range set {
			if existing.state == Invalid {
				set[i] = l
				placed = true
				break
			}
		}
		if !placed {
			panic("cache: victimize left no free way")
		}
	}

	// Deferred events serialized before our grant are superseded for the
	// line state (the fill data already reflects them) but must still reach
	// the client before any waiter completes: the speculative-load buffer
	// matches by address, and a value speculated from the line's previous
	// incarnation is exactly what such an event invalidates. Dropping the
	// notification would let a stale speculation commit undetected.
	c.notifySupersededDeferred(ms, now)

	// For a shared fill, coherence events that arrived during the fill are
	// ordered before the waiting loads bind: applying them first lets the
	// speculative-load buffer catch the match while the load is still
	// incomplete — §4.2's second case, where only the load is reissued.
	// An exclusive fill must complete its waiters first: the written data
	// is what a deferred recall has to carry away.
	if !ms.exclusive {
		c.applyDeferred(ms, now)
	}

	// Complete waiters in arrival order, applying writes as they complete.
	// A deferred invalidation (applied first on shared fills) may have
	// emptied the resident line; reads then bind from the fill data, which
	// is the value their coherence order entitles them to. (If the read was
	// speculative, the same deferred event already reissued or squashed it
	// and this completion is dropped as stale.)
	readData := l.data
	if len(readData) == 0 {
		readData = ms.data
	}
	var escalated []waiter
	for _, w := range ms.waiters {
		req := w.req
		off := c.geom.Offset(req.Addr)
		switch req.Kind {
		case ReqRead:
			c.client.AccessComplete(req.ID, readData[off], now)
		case ReqReadEx:
			if !writableState(l.state) {
				escalated = append(escalated, w)
				continue
			}
			c.client.AccessComplete(req.ID, l.data[off], now)
		case ReqWrite:
			if c.proto == coherence.ProtoUpdate {
				// Write-allocate fill finished; now send the word update.
				c.sendUpdateReq(req, now)
				continue
			}
			if !writableState(l.state) {
				escalated = append(escalated, w)
				continue
			}
			l.state = Modified
			l.data[off] = req.Data
			c.client.AccessComplete(req.ID, req.Data, now)
		case ReqRMW:
			if !writableState(l.state) {
				escalated = append(escalated, w)
				continue
			}
			l.state = Modified
			old := l.data[off]
			l.data[off] = req.RMW.Apply(old, req.Data)
			c.client.AccessComplete(req.ID, old, now)
		}
	}

	if len(escalated) > 0 || (ms.escalate && !writableState(l.state)) {
		// A write merged into a shared fill: immediately request
		// exclusivity, carrying the unserved writes as waiters.
		nm := &mshr{lineAddr: ms.lineAddr, exclusive: true, waiters: escalated}
		c.mshrs[ms.lineAddr] = nm
		c.net.Post(network.Message{
			Type: network.MsgGetX, Src: c.ID, Dst: c.homeFor(ms.lineAddr), Line: ms.lineAddr,
		}, now)
		c.Stats.Counter("escalations").Inc()
	}

	// Exclusive fills apply deferred coherence events after the waiters.
	if ms.exclusive {
		c.applyDeferred(ms, now)
	}
}

// notifySupersededDeferred filters out deferred events whose directory
// version precedes the grant — the fill data already reflects them, so they
// must not be applied to the line — while still reporting each one to the
// client as a pure notification. Under MSI a recall can never be
// superseded: the directory does not grant past an unanswered recall. Under
// MESI it can: a recall aimed at a silently evicted Exclusive copy races
// our re-request, the directory proves the copy is gone from the request
// itself and self-completes the recall, and the grant it then issues
// carries a newer version than the recall. The stale recall is dropped
// (the directory is not waiting for an answer), with a conservative
// invalidate notification for the speculative-load buffer.
func (c *Cache) notifySupersededDeferred(ms *mshr, now uint64) {
	keep := ms.deferred[:0]
	for _, ev := range ms.deferred {
		if ev.tag > ms.grantVer {
			keep = append(keep, ev)
			continue
		}
		switch ev.typ {
		case network.MsgInv:
			c.client.CoherenceEvent(ms.lineAddr, EvInvalidate, now)
		case network.MsgUpdate:
			c.client.CoherenceEvent(ms.lineAddr, EvUpdate, now)
		case network.MsgRecallShare, network.MsgRecallInv:
			if c.proto != coherence.ProtoMESI {
				panic(fmt.Sprintf("cache %d: dropping deferred recall tag=%d grant=%d line=%#x", c.ID, ev.tag, ms.grantVer, ms.lineAddr))
			}
			c.Stats.Counter("superseded_recalls").Inc()
			c.client.CoherenceEvent(ms.lineAddr, EvInvalidate, now)
		default:
			panic(fmt.Sprintf("cache %d: dropping deferred %v tag=%d grant=%d line=%#x", c.ID, ev.typ, ev.tag, ms.grantVer, ms.lineAddr))
		}
	}
	ms.deferred = keep
}

// applyDeferred processes the coherence events that arrived while the fill
// was pending, in directory order. Superseded events were already filtered
// (and notified) by notifySupersededDeferred.
func (c *Cache) applyDeferred(ms *mshr, now uint64) {
	deferred := ms.deferred
	ms.deferred = nil
	for _, ev := range deferred {
		switch ev.typ {
		case network.MsgInv:
			c.applyInvalidate(ms.lineAddr, now)
		case network.MsgUpdate:
			c.applyUpdate(ms.lineAddr, ev.word, ev.value, ev.tag, now)
		case network.MsgRecallShare, network.MsgRecallInv:
			c.respondRecall(ms.lineAddr, ev.typ, ev.tag, now)
		}
	}
}

// victimize ensures the set for lineAddr has a free way, evicting the LRU
// line if necessary, and reports whether a way is available. Lines with a
// scheduled hit completion are pinned and cannot be victims (paper footnote
// 3); a replacement of a line with a matching speculative-load-buffer entry
// is allowed and reported to the client, which conservatively squashes
// (§4.1).
func (c *Cache) victimize(lineAddr uint64, now uint64) bool {
	idx := c.setIndex(lineAddr)
	set := c.set(idx)
	if set == nil {
		set = make([]*line, c.cfg.Ways)
		ways := make([]line, c.cfg.Ways) // Invalid is the zero state
		for i := range set {
			set[i] = &ways[i]
		}
		c.setTab = append(c.setTab, set)
		c.setOf[idx] = int32(len(c.setTab))
	}
	for _, l := range set {
		if l.state == Invalid {
			return true
		}
	}
	// Evict the least recently used unpinned resident line.
	var victim *line
	for _, l := range set {
		if c.pinned[l.addr] > 0 {
			continue
		}
		if victim == nil || l.lastUse < victim.lastUse {
			victim = l
		}
	}
	if victim == nil {
		return false
	}
	c.evict(victim, now)
	return true
}

// evict removes a resident line, writing back dirty data and notifying both
// the directory and the client (replacement detection for the
// speculative-load buffer).
func (c *Cache) evict(l *line, now uint64) {
	c.Stats.Counter("evictions").Inc()
	switch l.state {
	case Modified:
		c.wb[l.addr] = &wbEntry{data: append([]int64(nil), l.data...)}
		c.net.Post(network.Message{
			Type: network.MsgWriteBack, Src: c.ID, Dst: c.homeFor(l.addr),
			Line: l.addr, Data: append([]int64(nil), l.data...), Tag: l.grantVer,
		}, now)
	case Exclusive:
		// MESI silent clean eviction: memory is current and the directory
		// still names us owner; it learns of the departure from our next
		// request for the line or from an unanswerable recall.
		c.Stats.Counter("silent_evictions").Inc()
	default:
		c.net.Post(network.Message{
			Type: network.MsgReplaceHint, Src: c.ID, Dst: c.homeFor(l.addr), Line: l.addr,
		}, now)
	}
	addr := l.addr
	l.state = Invalid
	l.data = nil
	c.client.CoherenceEvent(addr, EvReplace, now)
}

// handleInv processes an invalidation. The ack is always sent promptly to
// the requesting writer (early acknowledgment; safe because the directory
// serialized our copy before the write, and conservative for the
// speculative-load buffer, which squashes on the event). Application is
// deferred if a fill is pending, ordered by version.
func (c *Cache) handleInv(m *network.Message, now uint64) {
	c.net.Post(network.Message{
		Type: network.MsgInvAck, Src: c.ID, Dst: m.Requester, Line: m.Line, Tag: m.Tag,
	}, now)
	if ms, ok := c.mshrs[m.Line]; ok {
		ms.deferred = append(ms.deferred, deferredEvent{typ: network.MsgInv, tag: m.Tag})
		return
	}
	if l := c.lookup(m.Line); l != nil {
		if m.Tag > l.grantVer {
			c.applyInvalidate(m.Line, now)
		} else {
			// Superseded by a newer grant: the resident copy already
			// reflects the write this invalidation announces, but the
			// speculative-load buffer may hold values bound from the
			// line's previous incarnation — notify without applying.
			c.client.CoherenceEvent(m.Line, EvInvalidate, now)
		}
	}
	// Absent line: whatever removed it (eviction, recall, earlier
	// invalidation) already produced its own coherence event.
}

func (c *Cache) applyInvalidate(lineAddr uint64, now uint64) {
	if l := c.lookup(lineAddr); l != nil {
		l.state = Invalid
		l.data = nil
		c.Stats.Counter("invalidations_received").Inc()
		c.client.CoherenceEvent(lineAddr, EvInvalidate, now)
	}
}

// handleUpdate processes a word update from the update protocol.
func (c *Cache) handleUpdate(m *network.Message, now uint64) {
	c.net.Post(network.Message{
		Type: network.MsgUpdateAck, Src: c.ID, Dst: m.Requester, Line: m.Line, Tag: m.Tag,
	}, now)
	if ms, ok := c.mshrs[m.Line]; ok {
		ms.deferred = append(ms.deferred, deferredEvent{typ: network.MsgUpdate, tag: m.Tag, word: m.Word, value: m.Value})
		return
	}
	c.applyUpdate(m.Line, m.Word, m.Value, m.Tag, now)
}

func (c *Cache) applyUpdate(lineAddr, word uint64, value int64, tag uint64, now uint64) {
	l := c.lookup(lineAddr)
	if l == nil {
		return
	}
	if tag > l.grantVer {
		l.data[c.geom.Offset(word)] = value
		l.grantVer = tag
		c.Stats.Counter("updates_received").Inc()
	}
	// Notified even when superseded by a newer grant: the update still
	// announces a write the speculative-load buffer may have raced.
	c.client.CoherenceEvent(lineAddr, EvUpdate, now)
}

// handleUpdateAck credits a sharer ack to the outstanding write transaction
// with the matching directory tag, pooling early acks.
func (c *Cache) handleUpdateAck(m *network.Message, now uint64) {
	for _, x := range c.xacts {
		if x.doneSeen && x.dirTag == m.Tag && c.geom.LineOf(x.word) == m.Line {
			x.acksGot++
			c.completeUpdateXacts(now)
			return
		}
	}
	c.ackPool[ackKey{m.Line, m.Tag}]++
}

// handleUpdateDone records the directory's completion of a word write. The
// oldest transaction for this word without a directory tag is the match
// (directory responses arrive in request order).
func (c *Cache) handleUpdateDone(m *network.Message, now uint64) {
	for _, x := range c.xacts {
		if !x.doneSeen && x.word == m.Word {
			x.doneSeen = true
			x.dirTag = m.Tag
			x.acksNeeded = m.AckCount
			x.oldValue = m.Value
			if n := c.ackPool[ackKey{m.Line, m.Tag}]; n > 0 {
				x.acksGot += n
				delete(c.ackPool, ackKey{m.Line, m.Tag})
			}
			c.completeUpdateXacts(now)
			return
		}
	}
	panic(fmt.Sprintf("cache %d: UpdateDone with no matching transaction", c.ID))
}

// completeUpdateXacts retires finished update transactions in order and
// applies the written value to the local copy.
func (c *Cache) completeUpdateXacts(now uint64) {
	remaining := c.xacts[:0]
	for _, x := range c.xacts {
		if !(x.doneSeen && x.acksGot >= x.acksNeeded) {
			remaining = append(remaining, x)
			continue
		}
		if l := c.lookup(c.geom.LineOf(x.word)); l != nil && x.dirTag > l.grantVer {
			newVal := x.req.Data
			if x.req.Kind == ReqRMW {
				newVal = x.req.RMW.Apply(x.oldValue, x.req.Data)
			}
			l.data[c.geom.Offset(x.word)] = newVal
			l.grantVer = x.dirTag
		}
		value := x.req.Data
		if x.req.Kind == ReqRMW {
			value = x.oldValue // RMWs return the old value
		}
		c.client.AccessComplete(x.req.ID, value, now)
	}
	c.xacts = remaining
}

// handleRecall serves a directory recall of a dirty line: respond with the
// data and downgrade (RecallShare) or invalidate (RecallInv). If the line
// was voluntarily written back, the recall refers to that old copy — answer
// from the writeback buffer even if a new fill for the line is already in
// flight (the directory serialized the recall before our new request). Only
// when no writeback is pending does a recall wait for the outstanding fill.
func (c *Cache) handleRecall(m *network.Message, now uint64) {
	if wbe, ok := c.wb[m.Line]; ok {
		// AckCount=0 tells the directory the responder retains no copy.
		c.net.Post(network.Message{
			Type: network.MsgWriteBack, Src: c.ID, Dst: c.homeFor(m.Line),
			Line: m.Line, Data: append([]int64(nil), wbe.data...), Tag: m.Tag, AckCount: 0,
		}, now)
		return
	}
	if ms, ok := c.mshrs[m.Line]; ok {
		ms.deferred = append(ms.deferred, deferredEvent{typ: m.Type, tag: m.Tag, requester: m.Requester})
		return
	}
	c.respondRecall(m.Line, m.Type, m.Tag, now)
}

func (c *Cache) respondRecall(lineAddr uint64, typ network.MsgType, tag uint64, now uint64) {
	if l := c.lookup(lineAddr); l != nil {
		retained := 0
		if typ == network.MsgRecallShare {
			retained = 1
		}
		c.net.Post(network.Message{
			Type: network.MsgWriteBack, Src: c.ID, Dst: c.homeFor(lineAddr),
			Line: lineAddr, Data: append([]int64(nil), l.data...), Tag: tag, AckCount: retained,
		}, now)
		if typ == network.MsgRecallInv {
			c.applyInvalidate(lineAddr, now)
		} else {
			l.state = Shared
			l.grantVer = tag
		}
		return
	}
	if wbe, ok := c.wb[lineAddr]; ok {
		c.net.Post(network.Message{
			Type: network.MsgWriteBack, Src: c.ID, Dst: c.homeFor(lineAddr),
			Line: lineAddr, Data: append([]int64(nil), wbe.data...), Tag: tag, AckCount: 0,
		}, now)
		return
	}
	if c.proto == coherence.ProtoMESI {
		// The recall found nothing: our Exclusive copy was silently evicted
		// (it was clean, so memory is current). Answer "no copy" — nil data
		// tells the directory to skip the memory write, AckCount=0 that no
		// copy is retained.
		c.Stats.Counter("recall_nocopy").Inc()
		c.net.Post(network.Message{
			Type: network.MsgWriteBack, Src: c.ID, Dst: c.homeFor(lineAddr),
			Line: lineAddr, Data: nil, Tag: tag, AckCount: 0,
		}, now)
		return
	}
	panic(fmt.Sprintf("cache %d: recall for absent line %#x", c.ID, lineAddr))
}
