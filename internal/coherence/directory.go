// Package coherence implements the directory-based cache-coherence
// protocols of the simulated machine: an invalidation protocol in the style
// of the Stanford DASH directory (the paper's host architecture) and a
// write-update protocol used by the update-vs-invalidation experiment.
//
// The directory is the serialization point for each line. Simple
// transactions (grants from memory, possibly with invalidations whose acks
// are collected by the requester, as in DASH) complete at the directory
// instantly; transactions that must recall a dirty line from its owner mark
// the line busy and queue subsequent requests for it.
//
// Every directory-state transition for a line increments the line's version
// number, and every grant and invalidation carries the version that caused
// it. Caches use the version to order messages that arrive while a fill is
// pending, which resolves all protocol races without NACKs or retries.
package coherence

import (
	"fmt"

	"mcmsim/internal/isa"
	"mcmsim/internal/memsys"
	"mcmsim/internal/network"
	"mcmsim/internal/stats"
)

// Protocol selects the coherence scheme.
type Protocol uint8

// Supported protocols.
const (
	// ProtoInvalidate is the DASH-style write-invalidate directory protocol.
	// Both read and read-exclusive prefetches are possible (paper §3.1).
	ProtoInvalidate Protocol = iota
	// ProtoUpdate is a write-update protocol: writes update memory at the
	// directory and propagate word updates to sharers. Read-exclusive
	// prefetch is not possible (paper §3.1: servicing a write partially
	// would make the new value visible).
	ProtoUpdate
	// ProtoMESI extends the invalidation protocol with an Exclusive-clean
	// cache state: a read miss on an uncached line is granted exclusively,
	// a store to the granted copy upgrades it silently, and a clean
	// exclusive copy is evicted silently. The directory cannot distinguish
	// Exclusive from Modified at the owner, so recalls may discover the
	// copy is gone (a "no copy" response with no data) and a request from
	// the presumed owner is itself proof of a silent eviction.
	ProtoMESI
)

func (p Protocol) String() string {
	switch p {
	case ProtoUpdate:
		return "update"
	case ProtoMESI:
		return "mesi"
	default:
		return "invalidate"
	}
}

// dirState is the directory's view of one line.
type dirState uint8

const (
	dirUncached  dirState = iota // no cached copies
	dirShared                    // one or more read-only copies
	dirExclusive                 // exactly one dirty copy at owner
)

// dirLine is the directory entry for one line.
type dirLine struct {
	state   dirState
	sharers sharerSet
	owner   network.NodeID
	ver     uint64 // bumped on every state transition

	// busy recall transaction, when state changes require the owner's data.
	busy       bool
	recallTag  uint64
	pendingReq *network.Message   // request being served by the recall
	waitQ      []*network.Message // requests queued while busy
}

// Directory is a home node: it owns the coherence state (and the backing
// memory) for the lines that map to it. A machine may interleave lines
// across several Directory instances (DASH-style distributed memory).
type Directory struct {
	ID       network.NodeID
	net      network.Port
	mem      *memsys.Memory
	geom     memsys.Geometry
	memLat   uint64 // service latency for a memory access at the home node
	protocol Protocol
	lines    map[uint64]*dirLine
	Stats    *stats.Set
	// Counters bumped per serviced message or request, resolved once.
	serviced, gets, getx, invalidations stats.CounterRef

	// sharerCfg selects exact vs limited-pointer/coarse sharer tracking
	// (ConfigureSharers); the zero value is the seed's unbounded exact list.
	sharerCfg sharerConfig

	// MaxPerCycle bounds how many incoming messages the module services per
	// cycle (0 = unlimited, the paper's pipelined memory assumption).
	// Overflow waits in the ingress queue; Tick drains it.
	MaxPerCycle int
	ingress     []*network.Message
	batch       []*network.Message // Tick scratch, reused across cycles
}

// New creates a directory attached to the network at node id.
// memLat is the memory access latency added to each response that reads or
// writes the backing store.
func New(id network.NodeID, net *network.Network, mem *memsys.Memory, memLat uint64, protocol Protocol) *Directory {
	d := &Directory{
		ID:       id,
		net:      net,
		mem:      mem,
		geom:     mem.Geometry(),
		memLat:   memLat,
		protocol: protocol,
		lines:    make(map[uint64]*dirLine),
		Stats:    stats.NewSet("directory"),
	}
	d.serviced = d.Stats.Ref("serviced")
	d.gets = d.Stats.Ref("gets")
	d.getx = d.Stats.Ref("getx")
	d.invalidations = d.Stats.Ref("invalidations")
	net.Attach(id, d)
	return d
}

// Protocol returns the active coherence protocol.
func (d *Directory) Protocol() Protocol { return d.protocol }

// SetPort rebinds the directory onto a different network port (a
// shard-private endpoint during a parallel run, the network itself after).
func (d *Directory) SetPort(p network.Port) { d.net = p }

func (d *Directory) line(addr uint64) *dirLine {
	l, ok := d.lines[addr]
	if !ok {
		l = &dirLine{state: dirUncached, owner: -1}
		d.lines[addr] = l
	}
	return l
}

// HandleMessage implements network.Handler. With unlimited bandwidth the
// message is serviced on delivery; with a service bound it queues for Tick.
// Any message the directory keeps past this call (ingress, a busy line's
// waitQ, a recall's pendingReq) is retained so the network's message pool
// does not reclaim it; the directory recycles it once fully served.
func (d *Directory) HandleMessage(m *network.Message, now uint64) {
	if d.MaxPerCycle > 0 {
		m.Retain()
		d.ingress = append(d.ingress, m)
		return
	}
	if d.dispatch(m, now) {
		m.Retain()
	}
}

// Tick services up to MaxPerCycle queued messages. A no-op with unlimited
// bandwidth. Call once per cycle right after network delivery.
func (d *Directory) Tick(now uint64) {
	if d.MaxPerCycle <= 0 {
		return
	}
	n := d.MaxPerCycle
	if n > len(d.ingress) {
		n = len(d.ingress)
	}
	// Copy the batch before compacting: the compaction reuses the slots the
	// batch would otherwise alias.
	batch := append(d.batch[:0], d.ingress[:n]...)
	d.ingress = d.ingress[:copy(d.ingress, d.ingress[n:])]
	for _, m := range batch {
		if !d.dispatch(m, now) {
			d.net.Recycle(m)
		}
	}
	d.batch = batch[:0]
	if n > 0 {
		d.serviced.Add(uint64(n))
	}
}

// dispatch serves one delivered message. It reports whether the directory
// kept a reference to m (queued on a busy line or held as a recall's
// pending request); the caller owns m's pool lifetime otherwise.
func (d *Directory) dispatch(m *network.Message, now uint64) bool {
	switch m.Type {
	case MsgGetS, MsgGetX, MsgUpdateReq:
		l := d.line(m.Line)
		if l.busy && d.protocol == ProtoMESI && m.Src == l.owner {
			// The owner we are recalling from is itself requesting the line.
			// It can only miss if its copy is gone, and a dirty copy always
			// leaves a writeback (which blocks re-requests until it is
			// acknowledged), so the copy was clean-Exclusive and silently
			// evicted: the recall will never be answered with data. Complete
			// it now as a no-copy response; the owner's request then queues
			// or is served against the settled state below. The stale recall
			// reaches the owner before any newer grant (same-pair FIFO
			// delivery) and is dropped there as superseded.
			d.Stats.Counter("recall_self_completions").Inc()
			d.completeRecall(l, m.Line, nil, 0, now)
		}
		if l.busy {
			l.waitQ = append(l.waitQ, m)
			d.Stats.Counter("queued_requests").Inc()
			return true
		}
		return d.process(l, m, now)
	case MsgWriteBack:
		d.handleWriteBack(m, now)
	case network.MsgMemRead:
		// Stenstrom NST comparator: cacheless sequenced read served at the
		// memory module; FIFO delivery preserves each processor's program
		// order, which is what the next-sequence-number table guarantees.
		d.Stats.Counter("nst_reads").Inc()
		d.net.PostAfter(network.Message{
			Type: network.MsgMemRdResp, Src: d.ID, Dst: m.Src,
			Word: m.Word, Value: d.mem.ReadWord(m.Word), Tag: m.Tag,
		}, now, d.memLat)
	case network.MsgMemWrite:
		d.Stats.Counter("nst_writes").Inc()
		old := d.mem.ReadWord(m.Word)
		newVal := m.Value
		if m.SeqNo != 0 { // an atomic: SeqNo carries 1+isa.RMWKind
			newVal = isa.RMWKind(m.SeqNo-1).Apply(old, m.Value)
		}
		d.mem.WriteWord(m.Word, newVal)
		d.net.PostAfter(network.Message{
			Type: network.MsgMemWrAck, Src: d.ID, Dst: m.Src,
			Word: m.Word, Value: old, Tag: m.Tag,
		}, now, d.memLat)
	case MsgReplaceHint:
		l := d.line(m.Line)
		if l.sharers.coarseMode() {
			// A coarse group bit may cover CPUs that still share the line,
			// so a single departure cannot clear it; the hint is dropped
			// (the line narrows again at the next invalidation sweep).
			d.Stats.Counter("hints_ignored_coarse").Inc()
		} else {
			l.sharers.remove(m.Src)
			if l.state == dirShared && l.sharers.empty() {
				l.state = dirUncached
				l.ver++
			}
		}
		d.Stats.Counter("replace_hints").Inc()
	default:
		panic(fmt.Sprintf("directory: unexpected message %v from %d", m.Type, m.Src))
	}
	return false
}

// Aliases so callers read naturally; the canonical constants live in the
// network package.
const (
	MsgGetS        = network.MsgGetS
	MsgGetX        = network.MsgGetX
	MsgWriteBack   = network.MsgWriteBack
	MsgReplaceHint = network.MsgReplaceHint
	MsgData        = network.MsgData
	MsgDataEx      = network.MsgDataEx
	MsgInv         = network.MsgInv
	MsgInvAck      = network.MsgInvAck
	MsgRecallShare = network.MsgRecallShare
	MsgRecallInv   = network.MsgRecallInv
	MsgWBAck       = network.MsgWBAck
	MsgUpdateReq   = network.MsgUpdateReq
	MsgUpdate      = network.MsgUpdate
	MsgUpdateDone  = network.MsgUpdateDone
)

// process serves one request on a non-busy line. It may mark the line busy
// (owner recall) in which case completion continues in handleWriteBack; the
// return reports whether m was kept as that recall's pending request.
func (d *Directory) process(l *dirLine, m *network.Message, now uint64) bool {
	switch m.Type {
	case MsgGetS:
		return d.processGetS(l, m, now)
	case MsgGetX:
		return d.processGetX(l, m, now)
	case MsgUpdateReq:
		return d.processUpdate(l, m, now)
	default:
		panic(fmt.Sprintf("directory: cannot process %v", m.Type))
	}
}

func (d *Directory) processGetS(l *dirLine, m *network.Message, now uint64) bool {
	d.gets.Inc()
	switch l.state {
	case dirUncached, dirShared:
		if d.protocol == ProtoMESI && l.state == dirUncached {
			// MESI exclusive-clean grant: no other copy exists, so the
			// reader gets the line exclusively (and clean) for free — its
			// first store then upgrades silently, with no bus traffic.
			l.state = dirExclusive
			l.owner = m.Src
			l.ver++
			d.Stats.Counter("exclusive_clean_grants").Inc()
			d.net.PostAfter(network.Message{
				Type: MsgDataEx, Src: d.ID, Dst: m.Src,
				Line: m.Line, Data: d.mem.ReadLine(m.Line), Tag: l.ver, AckCount: 0,
			}, now, d.memLat)
			return false
		}
		if l.sharers.has(d.sharerCfg, m.Src) {
			if !l.sharers.coarseMode() {
				panic(fmt.Sprintf("directory %d: GetS from existing sharer %d line=%#x ver=%d", d.ID, m.Src, m.Line, l.ver))
			}
			// Coarse membership is conservative: a silently departed sharer
			// (its replacement hint was ignored) can legitimately request
			// the line again while its group bit is still set. Re-grant.
			d.Stats.Counter("coarse_regrants").Inc()
		}
		l.state = dirShared
		l.sharers.add(d.sharerCfg, m.Src)
		l.ver++
		d.net.PostAfter(network.Message{
			Type: MsgData, Src: d.ID, Dst: m.Src,
			Line: m.Line, Data: d.mem.ReadLine(m.Line), Tag: l.ver,
		}, now, d.memLat)
		return false
	default: // dirExclusive
		if d.protocol == ProtoMESI && l.owner == m.Src {
			// A request from the presumed owner proves the clean-Exclusive
			// copy was silently evicted (a dirty eviction's writeback blocks
			// re-requests until acknowledged, and the ack settles the
			// directory first). Memory is current: re-grant exclusively.
			l.ver++
			d.Stats.Counter("silent_eviction_regrants").Inc()
			d.net.PostAfter(network.Message{
				Type: MsgDataEx, Src: d.ID, Dst: m.Src,
				Line: m.Line, Data: d.mem.ReadLine(m.Line), Tag: l.ver, AckCount: 0,
			}, now, d.memLat)
			return false
		}
		// Recall the dirty line from its owner; the transaction completes
		// when the owner's WriteBack arrives.
		d.beginRecall(l, m, MsgRecallShare, now)
		return true
	}
}

func (d *Directory) processGetX(l *dirLine, m *network.Message, now uint64) bool {
	d.getx.Inc()
	switch l.state {
	case dirUncached, dirShared:
		l.ver++
		acks := 0
		if l.sharers.coarseMode() {
			d.Stats.Counter("coarse_inv_sweeps").Inc()
		}
		// Ascending sweep order: on a contended topology the send order
		// books links, so it must be a fixed function of directory state.
		l.sharers.forEach(d.sharerCfg, m.Src, func(s network.NodeID) {
			acks++
			d.net.Post(network.Message{
				Type: MsgInv, Src: d.ID, Dst: s,
				Line: m.Line, Tag: l.ver, Requester: m.Src,
			}, now)
			d.invalidations.Inc()
		})
		l.sharers.clear()
		l.state = dirExclusive
		l.owner = m.Src
		d.net.PostAfter(network.Message{
			Type: MsgDataEx, Src: d.ID, Dst: m.Src,
			Line: m.Line, Data: d.mem.ReadLine(m.Line), Tag: l.ver, AckCount: acks,
		}, now, d.memLat)
		return false
	default: // dirExclusive
		if l.owner == m.Src {
			if d.protocol != ProtoMESI {
				panic("directory: GetX from current owner")
			}
			// Silent eviction of the clean-Exclusive copy (see processGetS):
			// re-grant exclusively from current memory.
			l.ver++
			d.Stats.Counter("silent_eviction_regrants").Inc()
			d.net.PostAfter(network.Message{
				Type: MsgDataEx, Src: d.ID, Dst: m.Src,
				Line: m.Line, Data: d.mem.ReadLine(m.Line), Tag: l.ver, AckCount: 0,
			}, now, d.memLat)
			return false
		}
		d.beginRecall(l, m, MsgRecallInv, now)
		return true
	}
}

// processUpdate handles a word write at the directory. Under the update
// protocol this is the normal write path. Under the invalidation protocol it
// is used only by cacheless agents (the experiment harness's adversary
// writer and the NST comparator do not use it; see package agent): the write
// is applied to memory and all cached copies are invalidated or recalled.
func (d *Directory) processUpdate(l *dirLine, m *network.Message, now uint64) bool {
	d.Stats.Counter("updates").Inc()
	if d.protocol != ProtoUpdate && l.state == dirExclusive {
		// Must recall the dirty copy before memory can be written.
		d.beginRecall(l, m, MsgRecallInv, now)
		return true
	}
	d.finishUpdate(l, m, now)
	return false
}

// finishUpdate applies a word write at memory and propagates it to sharers.
// Under the invalidation protocol sharers are invalidated instead.
func (d *Directory) finishUpdate(l *dirLine, m *network.Message, now uint64) {
	old := d.mem.ReadWord(m.Word)
	newVal := m.Value
	if m.SeqNo != 0 { // an atomic: SeqNo carries 1+isa.RMWKind
		newVal = isa.RMWKind(m.SeqNo-1).Apply(old, m.Value)
	}
	d.mem.WriteWord(m.Word, newVal)
	l.ver++
	acks := 0
	typ := MsgUpdate
	if d.protocol != ProtoUpdate {
		typ = MsgInv
	}
	l.sharers.forEach(d.sharerCfg, m.Src, func(s network.NodeID) {
		acks++
		d.net.Post(network.Message{
			Type: typ, Src: d.ID, Dst: s,
			Line: m.Line, Word: m.Word, Value: newVal, Tag: l.ver, Requester: m.Src,
		}, now)
	})
	if d.protocol != ProtoUpdate {
		l.sharers.clear()
		l.state = dirUncached
	}
	d.net.PostAfter(network.Message{
		Type: MsgUpdateDone, Src: d.ID, Dst: m.Src,
		Line: m.Line, Word: m.Word, Value: old, Tag: l.ver, AckCount: acks,
	}, now, d.memLat)
}

// beginRecall starts an owner-recall transaction and marks the line busy.
func (d *Directory) beginRecall(l *dirLine, m *network.Message, recall network.MsgType, now uint64) {
	l.ver++
	l.busy = true
	l.recallTag = l.ver
	l.pendingReq = m
	d.net.Post(network.Message{
		Type: recall, Src: d.ID, Dst: l.owner,
		Line: m.Line, Tag: l.ver, Requester: m.Src,
	}, now)
	d.Stats.Counter("recalls").Inc()
}

// handleWriteBack processes both recall responses and voluntary victim
// writebacks, distinguished by tag.
func (d *Directory) handleWriteBack(m *network.Message, now uint64) {
	l := d.line(m.Line)
	if l.busy && m.Tag == l.recallTag {
		d.completeRecall(l, m.Line, m.Data, m.AckCount, now)
		return
	}

	// Voluntary writeback. Accept only if the writer is still the owner at
	// the current version; otherwise the line has already been recalled (the
	// recall response carried the same data) and this message is stale.
	if !l.busy && l.state == dirExclusive && l.owner == m.Src && m.Tag == l.ver {
		d.mem.WriteLine(m.Line, m.Data)
		l.state = dirUncached
		l.owner = -1
		l.ver++
		d.Stats.Counter("writebacks").Inc()
	} else {
		d.Stats.Counter("stale_writebacks").Inc()
	}
	d.net.Post(network.Message{
		Type: MsgWBAck, Src: d.ID, Dst: m.Src, Line: m.Line,
	}, now)
	if !l.busy {
		d.drainWaitQ(l, now)
	}
}

// completeRecall finishes a busy recall transaction and serves the pending
// request. data is the recalled line image, or nil when the recall found no
// copy (a MESI no-copy response, or the directory self-completing a recall
// whose target provably evicted silently) — memory is already current then
// and is not rewritten. retained=1 means the responder kept a shared copy.
func (d *Directory) completeRecall(l *dirLine, line uint64, data []int64, retained int, now uint64) {
	if data != nil {
		d.mem.WriteLine(line, data)
	}
	req := l.pendingReq
	l.pendingReq = nil
	oldOwner := l.owner
	switch req.Type {
	case MsgGetS:
		l.state = dirShared
		if retained == 1 {
			// The owner still holds the line, downgraded to shared; a
			// response from a victim writeback buffer (or a no-copy
			// response) retains no copy.
			l.sharers.add(d.sharerCfg, oldOwner)
		}
		l.sharers.add(d.sharerCfg, req.Src)
		l.ver++
		d.net.PostAfter(network.Message{
			Type: MsgData, Src: d.ID, Dst: req.Src,
			Line: line, Data: d.mem.ReadLine(line), Tag: l.ver,
		}, now, d.memLat)
	case MsgGetX:
		l.state = dirExclusive
		l.owner = req.Src
		l.ver++
		d.net.PostAfter(network.Message{
			Type: MsgDataEx, Src: d.ID, Dst: req.Src,
			Line: line, Data: d.mem.ReadLine(line), Tag: l.ver, AckCount: 0,
		}, now, d.memLat)
	case MsgUpdateReq:
		l.state = dirUncached
		l.owner = -1
		d.finishUpdate(l, req, now)
	}
	d.net.Recycle(req) // retained since beginRecall; fully served now
	l.busy = false
	d.drainWaitQ(l, now)
}

// drainWaitQ serves queued requests until the line goes busy again or the
// queue empties. Requests served to completion are released back to the
// message pool; one that starts a recall stays held as pendingReq.
func (d *Directory) drainWaitQ(l *dirLine, now uint64) {
	for !l.busy && len(l.waitQ) > 0 {
		m := l.waitQ[0]
		copy(l.waitQ, l.waitQ[1:])
		l.waitQ = l.waitQ[:len(l.waitQ)-1]
		if !d.process(l, m, now) {
			d.net.Recycle(m)
		}
	}
}

// NextWake reports when the directory can next make progress without new
// network input. The directory only self-schedules work when bounded
// bandwidth left messages waiting in the ingress queue; busy lines and
// waitQ entries advance solely on message arrival, which the simulator
// accounts for via Network.NextDelivery.
func (d *Directory) NextWake(now uint64) (uint64, bool) {
	if len(d.ingress) > 0 {
		return now, true
	}
	return 0, false
}

// Quiescent reports whether the directory has no busy lines, no queued
// requests and an empty ingress; used by the simulator's termination check.
func (d *Directory) Quiescent() bool {
	if len(d.ingress) > 0 {
		return false
	}
	for _, l := range d.lines {
		if l.busy || len(l.waitQ) > 0 {
			return false
		}
	}
	return true
}

// StateOf returns a debug description of a line's directory state.
func (d *Directory) StateOf(lineAddr uint64) string {
	l, ok := d.lines[lineAddr]
	if !ok {
		return "uncached"
	}
	switch l.state {
	case dirUncached:
		return "uncached"
	case dirShared:
		if l.sharers.coarseMode() {
			return fmt.Sprintf("shared(~%d)", l.sharers.count(d.sharerCfg))
		}
		return fmt.Sprintf("shared(x%d)", l.sharers.count(d.sharerCfg))
	default:
		return fmt.Sprintf("exclusive(%d)", l.owner)
	}
}
