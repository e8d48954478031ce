package network

import (
	"container/heap"
	"fmt"
	"sort"
)

// State is the serializable network state. Besides the arbitration counter
// (restoring it keeps every subsequent sequence number, and therefore every
// delivery order, identical) and the traffic statistics, it carries the
// in-flight messages by value, so a machine can be captured mid-flight —
// between two cycles, with deliveries still queued — and restored exactly.
type State struct {
	NextSeq      uint64
	MessagesSent uint64
	// Hops is HopsByType indexed by MsgType. Its length pins the message
	// vocabulary of the snapshot's writer; a reader with a different
	// vocabulary must not reinterpret the counts.
	Hops []uint64
	// Topo is the topology's mutable state (link occupancy clocks and
	// traffic counters); nil for the stateless uniform topology. Its layout
	// is owned by the topology implementation, so restore requires a
	// machine built with the identical topology.
	Topo []uint64
	// InFlight is every undelivered message in canonical delivery order
	// (deliver, seq) — the heap's semantic order, not its array layout,
	// which depends on push/pop history and would break snapshot
	// canonicality. Empty at quiescence.
	InFlight []MessageState
}

// MessageState is one in-flight message by value, including its assigned
// delivery cycle and global sequence number. It is also how components
// (the directory) serialize messages they retained past delivery.
type MessageState struct {
	Type      MsgType
	Src       NodeID
	Dst       NodeID
	Line      uint64
	Word      uint64
	Data      []int64
	Value     int64
	AckCount  int
	Requester NodeID
	SeqNo     uint64
	Tag       uint64
	Seq       uint64
	Deliver   uint64
}

// ExportMessage captures a message by value for serialization. The data
// payload is deep-copied: the live message may be mutated or recycled after
// the export, and the exported state must not alias it.
func ExportMessage(m *Message) MessageState {
	ms := MessageState{
		Type: m.Type, Src: m.Src, Dst: m.Dst,
		Line: m.Line, Word: m.Word, Value: m.Value,
		AckCount: m.AckCount, Requester: m.Requester,
		SeqNo: m.SeqNo, Tag: m.Tag,
		Seq: m.seq, Deliver: m.deliver,
	}
	if m.Data != nil {
		ms.Data = append([]int64(nil), m.Data...)
	}
	return ms
}

// Instantiate materializes the exported message as a fresh allocation, not
// enqueued. Like every message it joins a free list once delivered (unless
// retained) or recycled: Network.RestoreState re-queues it, and a
// component that held it retains it directly.
func (ms MessageState) Instantiate() *Message {
	m := &Message{
		Type: ms.Type, Src: ms.Src, Dst: ms.Dst,
		Line: ms.Line, Word: ms.Word, Value: ms.Value,
		AckCount: ms.AckCount, Requester: ms.Requester,
		SeqNo: ms.SeqNo, Tag: ms.Tag,
		seq: ms.Seq, deliver: ms.Deliver,
	}
	if ms.Data != nil {
		m.Data = append([]int64(nil), ms.Data...)
	}
	return m
}

// exportQueue renders a message heap in canonical delivery order without
// disturbing it.
func exportQueue(q msgHeap) []MessageState {
	if len(q) == 0 {
		return nil
	}
	out := make([]MessageState, len(q))
	for i, m := range q {
		out[i] = ExportMessage(m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Deliver != out[j].Deliver {
			return out[i].Deliver < out[j].Deliver
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// ExportState captures the network state, including messages still in
// flight.
func (n *Network) ExportState() (State, error) {
	st := State{
		NextSeq:      n.nextSeq,
		MessagesSent: n.MessagesSent,
		Hops:         make([]uint64, numMsgTypes),
		Topo:         n.topo.State(),
		InFlight:     exportQueue(n.q),
	}
	copy(st.Hops, n.HopsByType[:])
	return st, nil
}

// RestoreState replaces the network's persistent state with the exported
// one, re-queuing any in-flight messages. The network must be idle (freshly
// constructed or quiescent) so the restored queue is the whole queue.
func (n *Network) RestoreState(st State) error {
	if n.q.Len() != 0 {
		return fmt.Errorf("network: restore with %d pending deliveries", n.q.Len())
	}
	if len(st.Hops) != int(numMsgTypes) {
		return fmt.Errorf("network: snapshot has %d message types, this build has %d", len(st.Hops), numMsgTypes)
	}
	if err := n.topo.Restore(st.Topo); err != nil {
		return err
	}
	n.nextSeq = st.NextSeq
	n.MessagesSent = st.MessagesSent
	copy(n.HopsByType[:], st.Hops)
	for _, ms := range st.InFlight {
		m := ms.Instantiate()
		m.enqueued = true
		heap.Push(&n.q, m)
	}
	return nil
}
