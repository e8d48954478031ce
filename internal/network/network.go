// Package network models the interconnection network of the simulated
// multiprocessor as a deterministic point-to-point transport over a
// pluggable Topology. The seed topology (Uniform) is a fixed one-way
// latency, which is what the paper's analytical cycle counts assume; Mesh
// models the paper's host class (the Stanford DASH prototype's 2-D mesh)
// with XY routing, per-hop latency and per-link contention.
//
// Delivery is deterministic: messages are delivered in (deliveryTime,
// sequence-number) order, and arrival times are computed by exactly one
// Arrival call per message in global send order, so contention state
// evolves identically across engines. On the uniform topology this also
// guarantees FIFO ordering between any source/destination pair; on a mesh,
// same-route messages stay ordered because each link is booked in send
// order, but the coherence protocol never relies on network FIFO (the
// per-line version numbers order racing messages).
//
// Components send through a Port (port.go). A send names its departure
// cycle only; the topology names the arrival, so every message arrives at
// least Latency() cycles after it is sent. Messages come from a free list
// and return to one after delivery unless their handler retains them.
package network

import (
	"container/heap"
	"fmt"
)

// NodeID identifies an endpoint attached to the network: processor caches
// occupy IDs 0..P-1 and directory/memory modules occupy subsequent IDs by
// convention (the network itself imposes no structure on IDs).
type NodeID int

// MsgType enumerates coherence and memory message types carried by the
// network. The invalidation protocol, the update protocol and the cacheless
// NST comparator each use a subset.
type MsgType uint8

// Message types. An upgrade request has no distinct type: a writer holding
// a shared copy sends a plain GetX (the directory skips invalidating the
// requester), which removes a whole class of upgrade/invalidate races.
const (
	// Invalidation-protocol requests (cache -> directory).
	MsgGetS        MsgType = iota // read miss: request line in shared state
	MsgGetX                       // write/RMW miss or upgrade: request line exclusively
	MsgWriteBack                  // victim writeback or recall response (data)
	MsgReplaceHint                // replaced a clean shared line (no data)

	// Invalidation-protocol responses/forwards.
	MsgData        // directory -> cache: line data, shared grant
	MsgDataEx      // directory -> cache: line data, exclusive grant (AckCount invalidations pending)
	MsgInv         // directory -> sharer: invalidate; ack to Requester
	MsgInvAck      // sharer -> requester: invalidation done
	MsgRecallShare // directory -> owner: downgrade to shared, send data back
	MsgRecallInv   // directory -> owner: invalidate, send data back
	MsgWBAck       // directory -> cache: voluntary writeback accepted

	// Update-protocol messages.
	MsgUpdateReq  // writer cache -> directory: write-through word update
	MsgUpdate     // directory -> sharer: word update; ack to Requester
	MsgUpdateAck  // sharer -> writer: update applied
	MsgUpdateDone // directory -> writer: memory updated (AckCount sharer acks pending)

	// Cacheless memory-side ordering (Stenstrom NST comparator).
	MsgMemRead   // processor -> memory module: sequenced read
	MsgMemWrite  // processor -> memory module: sequenced write
	MsgMemRdResp // memory module -> processor: read data
	MsgMemWrAck  // memory module -> processor: write performed

	numMsgTypes // sentinel: sizes the per-type arrays below
)

// msgTypeNames is indexed by MsgType; per-message String/stat paths must
// not hash a map.
var msgTypeNames = [numMsgTypes]string{
	MsgGetS: "GetS", MsgGetX: "GetX",
	MsgWriteBack: "WriteBack", MsgReplaceHint: "ReplaceHint",
	MsgData: "Data", MsgDataEx: "DataEx",
	MsgInv: "Inv", MsgInvAck: "InvAck",
	MsgRecallShare: "RecallShare", MsgRecallInv: "RecallInv",
	MsgWBAck:     "WBAck",
	MsgUpdateReq: "UpdateReq", MsgUpdate: "Update",
	MsgUpdateAck: "UpdateAck", MsgUpdateDone: "UpdateDone",
	MsgMemRead: "MemRead", MsgMemWrite: "MemWrite",
	MsgMemRdResp: "MemRdResp", MsgMemWrAck: "MemWrAck",
}

// Valid reports whether t is a message type of this build (a snapshot may
// carry any byte).
func (t MsgType) Valid() bool { return t < numMsgTypes }

func (t MsgType) String() string {
	if t < numMsgTypes && msgTypeNames[t] != "" {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("Msg(%d)", uint8(t))
}

// Message is one packet in flight. Fields beyond Type/Src/Dst are used as
// each message type requires; unused fields are zero.
type Message struct {
	Type MsgType
	Src  NodeID
	Dst  NodeID

	Line      uint64  // line-aligned word address the message concerns
	Word      uint64  // word address for word-granular updates
	Data      []int64 // line data payload (Data/DataEx/WriteBack)
	Value     int64   // single-word payload (updates, NST reads/writes)
	AckCount  int     // invalidation/update acks the requester must collect
	Requester NodeID  // node acks should be sent to (Inv/Update forwards)
	SeqNo     uint64  // 1+isa.RMWKind on an atomic MemWrite or UpdateReq, else 0
	Tag       uint64  // opaque request tag echoed in responses

	seq      uint64 // global arbitration order, assigned at send
	deliver  uint64 // delivery cycle
	enqueued bool
	retained bool // handler kept the message past HandleMessage
}

// Retain marks a delivered message as kept by its handler beyond the
// HandleMessage call. The network then skips the automatic reclaim; the
// handler releases the message later with Port.Recycle.
func (m *Message) Retain() { m.retained = true }

// Handler receives delivered messages. Endpoints (caches, directories,
// memory modules) implement Handler and register with Attach.
type Handler interface {
	HandleMessage(m *Message, now uint64)
}

// Network is the deterministic transport. It is not safe for concurrent use;
// the simulator is single-goroutine by design (determinism first, use
// multiple Systems for throughput).
type Network struct {
	topo      Topology
	endpoints map[NodeID]Handler
	q         msgHeap
	nextSeq   uint64

	free freeList

	// MessagesSent counts every send for statistics.
	MessagesSent uint64
	// HopsByType counts sends per message type, indexed by MsgType.
	HopsByType [numMsgTypes]uint64
}

// New creates a uniform-topology network with the given one-way latency in
// cycles (the seed behavior: every node pair one latency apart, no
// contention).
func New(latency uint64) *Network {
	return NewWithTopology(Uniform{Lat: latency})
}

// NewWithTopology creates a network whose delivery times are computed by
// the given topology.
func NewWithTopology(t Topology) *Network {
	return &Network{
		topo:      t,
		endpoints: make(map[NodeID]Handler),
	}
}

// Latency returns the network's minimum one-way delay — the uniform
// latency on the seed topology, the per-hop latency on a mesh. It is the
// parallel engine's safe lookahead window; components never use it for
// protocol decisions.
func (n *Network) Latency() uint64 { return n.topo.MinDelay() }

// Topology returns the network's topology model.
func (n *Network) Topology() Topology { return n.topo }

// Attach registers an endpoint handler for a node ID. Attaching the same ID
// twice replaces the previous handler.
func (n *Network) Attach(id NodeID, h Handler) { n.endpoints[id] = h }

// Post sends a copy of proto drawn from the message free list, departing
// now; the topology supplies the arrival cycle (now + latency on the
// uniform topology). Messages are reclaimed automatically after their
// destination handler returns, unless the handler called Retain — so a
// handler that keeps the pointer past HandleMessage must Retain it and
// Recycle it when done; handlers that copy what they need (the common case)
// need do nothing.
func (n *Network) Post(proto Message, now uint64) { n.PostAfter(proto, now, 0) }

// PostAfter is Post departing at now + extra. The extra delay models
// service time at the sender (e.g. the directory's memory access) without
// a separate event queue; transit time is the topology's.
func (n *Network) PostAfter(proto Message, now, extra uint64) {
	m := n.free.get()
	*m = proto
	n.enqueue(m, n.topo.Arrival(m.Src, m.Dst, now+extra))
}

// Recycle returns a retained message to the free list.
func (n *Network) Recycle(m *Message) { n.free.put(m) }

// freeList is a message free list: messages return to it after delivery
// and are reused, so steady-state coherence traffic allocates nothing.
type freeList []*Message

func (f *freeList) get() *Message {
	if k := len(*f); k > 0 {
		m := (*f)[k-1]
		(*f)[k-1] = nil
		*f = (*f)[:k-1]
		return m
	}
	return &Message{}
}

// put wipes m and adds it to the list. A still-enqueued message is left
// alone.
func (f *freeList) put(m *Message) {
	if m.enqueued {
		return
	}
	*m = Message{}
	*f = append(*f, m)
}

// enqueue queues a message for delivery at the given cycle and assigns its
// arbitration sequence number.
func (n *Network) enqueue(m *Message, deliver uint64) {
	if m.enqueued {
		panic("network: message enqueued twice")
	}
	m.enqueued = true
	m.deliver = deliver
	m.seq = n.nextSeq
	n.nextSeq++
	n.MessagesSent++
	n.HopsByType[m.Type]++
	heap.Push(&n.q, m)
}

// Deliver hands every message due at or before now to its destination
// handler, in deterministic order. Handlers may send new messages during
// delivery; one due at or before now (a zero-latency send) is delivered by
// this same call, anything later in a later cycle.
func (n *Network) Deliver(now uint64) { n.DeliverWaking(now, nil) }

// DeliverWaking is Deliver that also calls woke, when non-nil, with each
// message's destination just before its handler runs. A caller that ticks
// only the nodes with work learns from it exactly which nodes this cycle's
// deliveries woke — a node reached by a zero-latency send that an earlier
// handler of the same call made included.
func (n *Network) DeliverWaking(now uint64, woke func(NodeID)) {
	for n.q.Len() > 0 && n.q[0].deliver <= now {
		m := heap.Pop(&n.q).(*Message)
		m.enqueued = false
		h, ok := n.endpoints[m.Dst]
		if !ok {
			panic("network: message to unattached node")
		}
		if woke != nil {
			woke(m.Dst)
		}
		h.HandleMessage(m, now)
		if m.retained {
			m.retained = false
		} else {
			n.free.put(m)
		}
	}
}

// Pending reports the number of undelivered messages; the simulator uses it
// to detect quiescence.
func (n *Network) Pending() int { return n.q.Len() }

// NextDelivery returns the earliest pending delivery cycle, or ok=false when
// the network is empty. The simulator can skip idle cycles with it.
func (n *Network) NextDelivery() (cycle uint64, ok bool) {
	if n.q.Len() == 0 {
		return 0, false
	}
	return n.q[0].deliver, true
}

// msgHeap orders messages by (deliver, seq).
type msgHeap []*Message

func (h msgHeap) Len() int { return len(h) }
func (h msgHeap) Less(i, j int) bool {
	if h[i].deliver != h[j].deliver {
		return h[i].deliver < h[j].deliver
	}
	return h[i].seq < h[j].seq
}
func (h msgHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *msgHeap) Push(x any)   { *h = append(*h, x.(*Message)) }
func (h *msgHeap) Pop() any {
	old := *h
	m := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return m
}
