// Per-endpoint inboxes and outboxes for the parallel shard engine
// (internal/parsim).
//
// The sequential simulator funnels every message through one delivery heap;
// arbitration order is the global sequence number assigned at send time,
// which in turn is fixed by the phase order of System.Step: scheduled
// writes, then processor frontends, then network delivery (handlers send in
// the (deliver, seq) order of the messages they handle), then directory
// ticks, cache ticks, LSU completion, execute, retire, LSU issue — each
// phase iterating components in index order.
//
// The parallel engine gives every shard a private Endpoint. During a
// lookahead window the shard's components send into the endpoint's outbox;
// each send is stamped with a key that encodes exactly where in the
// sequential phase order the send would have happened: (cycle, phase,
// major, ordinal), where major is the component's index within its phase —
// or, for sends made while handling a delivered message, the handled
// message's global sequence number. At the window barrier, Exchange.Barrier
// sorts all outboxes by that key, assigns the global sequence numbers in
// sorted order, and routes every message into its destination shard's
// inbox heap. Because the key order equals the sequential send order, the
// (deliver, seq) delivery order each endpoint observes is byte-for-byte the
// order the sequential engine would have produced. Every send arrives at
// least the topology's minimum delay after its departure, because no Port
// call can name a delivery cycle; a window that short therefore never
// receives a message sent inside it.
package network

import (
	"container/heap"
	"fmt"
	"sort"
)

// Phase identifies one phase of the simulator's per-cycle step order; it is
// the second component of the send-order key. The values mirror
// sim.System.Step and must stay in that order.
type Phase uint8

// Step phases, in sequential execution order.
const (
	PhaseWrites      Phase = iota // scheduled external writes (agent)
	PhaseFrontend                 // cpu.Proc.TickFrontend
	PhaseDeliver                  // message delivery (handlers run here)
	PhaseDirTick                  // coherence.Directory.Tick
	PhaseCacheTick                // cache.Cache.Tick
	PhaseLSUComplete              // core.LSU.TickComplete
	PhaseExecute                  // cpu.Proc.TickExecute
	PhaseRetire                   // cpu.Proc.TickRetire
	PhaseLSUIssue                 // core.LSU.TickIssue
)

// sendKey is the total order on sends within one window. Two sends from
// the same endpoint differ in ord; sends from different endpoints in the
// same cycle differ in (phase, major): outside the deliver phase exactly
// one component kind runs per phase and major is its index, and inside the
// deliver phase major is the handled message's globally unique sequence
// number.
type sendKey struct {
	cycle uint64
	phase Phase
	major uint64
	ord   uint64
}

func (k sendKey) less(o sendKey) bool {
	if k.cycle != o.cycle {
		return k.cycle < o.cycle
	}
	if k.phase != o.phase {
		return k.phase < o.phase
	}
	if k.major != o.major {
		return k.major < o.major
	}
	return k.ord < o.ord
}

type pendingSend struct {
	m   *Message
	key sendKey
	// dep is the message's departure cycle (send time plus sender service
	// time); the barrier turns it into an arrival cycle via the topology.
	dep uint64
}

// Endpoint is one shard's private view of the network: an inbox of
// messages routed to it at previous barriers, an outbox of sends made
// during the current window, and a private message free list. It is used
// by exactly one goroutine between barriers; the Exchange (single-threaded
// at barriers) is the only other toucher.
type Endpoint struct {
	rank    uint64
	handler Handler

	inbox msgHeap
	out   []pendingSend
	free  freeList

	ctx sendKey // ambient (cycle, phase, major); ord appended per send
	ord uint64

	// Counters folded into the Network at Exchange.Close.
	sent uint64
	hops [numMsgTypes]uint64

	// Received counts inbox deliveries (scheduler observability only).
	Received uint64
}

// SetPhase establishes the ambient send-order context for subsequent sends:
// the current cycle and step phase. The endpoint's component rank supplies
// the major key. DeliverDue overrides the context per handled message.
func (ep *Endpoint) SetPhase(cycle uint64, ph Phase) {
	ep.ctx = sendKey{cycle: cycle, phase: ph, major: ep.rank}
}

// Post implements Port: the message departs now; its arrival cycle is
// computed by the topology at the next barrier, in sequential send order,
// so topology contention state evolves exactly as in the sequential engine.
func (ep *Endpoint) Post(proto Message, now uint64) { ep.PostAfter(proto, now, 0) }

// PostAfter implements Port: departure at now + extra (sender service time).
func (ep *Endpoint) PostAfter(proto Message, now, extra uint64) {
	m := ep.free.get()
	*m = proto
	ep.enqueue(m, now+extra)
}

// enqueue buffers the message in the outbox, stamped with the sequential
// send-order key; it reaches its destination inbox at the next barrier.
func (ep *Endpoint) enqueue(m *Message, dep uint64) {
	if m.enqueued {
		panic("network: message enqueued twice")
	}
	m.enqueued = true
	ep.sent++
	ep.hops[m.Type]++
	key := ep.ctx
	key.ord = ep.ord
	ep.ord++
	ep.out = append(ep.out, pendingSend{m: m, key: key, dep: dep})
}

// Recycle implements Port. Messages migrate between shards (a message
// posted by one shard is recycled into the free list of the shard that
// consumed it); barriers order every handoff.
func (ep *Endpoint) Recycle(m *Message) { ep.free.put(m) }

// DeliverDue hands every inbox message due at or before now to the shard's
// handler, in the same (deliver, seq) order the sequential Network.Deliver
// uses. Sends made by the handler are keyed by the handled message's
// sequence number, mirroring the sequential rule that handler sends happen
// in delivery order.
func (ep *Endpoint) DeliverDue(now uint64) {
	for ep.inbox.Len() > 0 && ep.inbox[0].deliver <= now {
		m := heap.Pop(&ep.inbox).(*Message)
		m.enqueued = false
		ep.ctx = sendKey{cycle: now, phase: PhaseDeliver, major: m.seq}
		ep.Received++
		ep.handler.HandleMessage(m, now)
		if m.retained {
			m.retained = false
		} else {
			ep.free.put(m)
		}
	}
}

// Pending reports undelivered inbox messages.
func (ep *Endpoint) Pending() int { return ep.inbox.Len() }

// NextDelivery returns the earliest pending inbox delivery cycle, or
// ok=false when the inbox is empty; the shard's intra-window fast-forward
// folds it into its wake horizon.
func (ep *Endpoint) NextDelivery() (cycle uint64, ok bool) {
	if ep.inbox.Len() == 0 {
		return 0, false
	}
	return ep.inbox[0].deliver, true
}

// Sent reports the endpoint's cumulative send count (scheduler
// observability; the canonical per-run totals are folded into
// Network.MessagesSent at Close).
func (ep *Endpoint) Sent() uint64 { return ep.sent }

// Exchange owns the barrier merge for one parallel run: it creates the
// per-shard endpoints, continues the network's global sequence counter, and
// at each barrier routes every outbox message into its destination inbox in
// sequential send order. All Exchange methods are single-threaded: they run
// between windows, when no shard goroutine is active.
type Exchange struct {
	net     *Network
	eps     []*Endpoint
	dest    map[NodeID]*Endpoint
	nextSeq uint64
	scratch []pendingSend

	// held keeps the deliveries the network had queued at construction
	// until their destination endpoints exist.
	held []*Message

	// Exchanged counts messages routed across all barriers.
	Exchanged uint64
}

// NewExchange starts a parallel message exchange over n, continuing its
// sequence counter so a subsequent sequential run stays aligned. Any
// deliveries n still has queued (a machine restored from a mid-flight
// snapshot, or a phase chained onto an aborted run) leave the network
// here and enter their destination endpoint's inbox as Endpoint creates
// it, delivery cycle and sequence number intact — exactly as if a barrier
// had routed them. Close reinjects whatever is still undelivered, so the
// detour is invisible to a subsequent sequential run.
func NewExchange(n *Network) *Exchange {
	x := &Exchange{net: n, dest: make(map[NodeID]*Endpoint), nextSeq: n.nextSeq}
	for n.q.Len() > 0 {
		x.held = append(x.held, heap.Pop(&n.q).(*Message))
	}
	return x
}

// Endpoint creates the endpoint for one shard: its network node, its
// component rank (index within its step phase), and the handler that
// receives its deliveries.
func (x *Exchange) Endpoint(id NodeID, rank uint64, h Handler) *Endpoint {
	ep := &Endpoint{rank: rank, handler: h}
	x.eps = append(x.eps, ep)
	x.dest[id] = ep
	kept := x.held[:0]
	for _, m := range x.held {
		if m.Dst == id {
			heap.Push(&ep.inbox, m)
		} else {
			kept = append(kept, m)
		}
	}
	x.held = kept
	return ep
}

// Barrier merges every outbox into the destination inboxes: sends are
// sorted by their sequential-order key and receive consecutive global
// sequence numbers, so each inbox's (deliver, seq) order reproduces the
// sequential engine's delivery order exactly. Arrival cycles are computed
// here too, by one topology Arrival call per message in the sorted order —
// the same call sequence the sequential engine makes at Send time, so
// link-contention state (and with it every delivery time) is byte-for-byte
// engine-independent.
func (x *Exchange) Barrier() {
	x.scratch = x.scratch[:0]
	for _, ep := range x.eps {
		x.scratch = append(x.scratch, ep.out...)
		for i := range ep.out {
			ep.out[i] = pendingSend{}
		}
		ep.out = ep.out[:0]
	}
	sort.Slice(x.scratch, func(i, j int) bool { return x.scratch[i].key.less(x.scratch[j].key) })
	topo := x.net.topo
	for _, ps := range x.scratch {
		m := ps.m
		m.deliver = topo.Arrival(m.Src, m.Dst, ps.dep)
		m.seq = x.nextSeq
		x.nextSeq++
		dst, ok := x.dest[m.Dst]
		if !ok {
			panic(fmt.Sprintf("network: message to unattached node %d", m.Dst))
		}
		heap.Push(&dst.inbox, m)
	}
	x.Exchanged += uint64(len(x.scratch))
}

// PendingTotal reports undelivered messages across all inboxes (the
// parallel engine's replacement for Network.Pending in its Done check).
func (x *Exchange) PendingTotal() int {
	total := len(x.held)
	for _, ep := range x.eps {
		total += ep.inbox.Len()
	}
	return total
}

// Close tears the exchange down and restores the Network to a state
// indistinguishable from having run sequentially: per-endpoint send
// counters fold into MessagesSent/HopsByType, the sequence counter is
// written back, endpoint free lists rejoin the global pool, and any
// undelivered messages (error paths only) are reinjected into the
// delivery heap with their deliver cycle and sequence number intact.
func (x *Exchange) Close() {
	n := x.net
	for _, m := range x.held {
		heap.Push(&n.q, m)
	}
	x.held = nil
	for _, ep := range x.eps {
		if len(ep.out) != 0 {
			panic("network: Exchange.Close with unbarriered sends")
		}
		n.MessagesSent += ep.sent
		for t, c := range ep.hops {
			n.HopsByType[t] += c
		}
		ep.sent = 0
		ep.hops = [numMsgTypes]uint64{}
		for ep.inbox.Len() > 0 {
			heap.Push(&n.q, heap.Pop(&ep.inbox)) // deliver/seq/enqueued preserved
		}
		n.free = append(n.free, ep.free...)
		ep.free = nil
	}
	n.nextSeq = x.nextSeq
}
