package network

// Port is the network access point a component (cache, directory, agent)
// sends through. Two implementations exist:
//
//   - *Network itself: the sequential engine's direct path. Messages go
//     straight into the global delivery heap and receive their arbitration
//     sequence number at send time.
//   - *Endpoint: the parallel engine's per-shard outbox. Messages are
//     buffered locally, stamped with the position the sequential loop would
//     have sent them at, and merged into the destination inboxes at the next
//     window barrier (Exchange.Barrier), where they receive sequence numbers
//     in exactly the order the sequential path would have assigned them.
//
// Components hold a Port, not a *Network, so the simulator can rebind them
// onto a shard-private endpoint for a parallel run and back afterwards
// without the component noticing. A send names its departure, never its
// arrival: the topology computes the delivery cycle, at least the
// network's minimum delay later, which is what makes that minimum the
// shard engine's lookahead. Every message comes from the port's free list
// and returns to one after delivery unless its handler retained it.
type Port interface {
	// Post sends a pooled copy of proto departing now.
	Post(proto Message, now uint64)
	// PostAfter sends a pooled copy of proto departing at now + extra
	// (sender service time).
	PostAfter(proto Message, now, extra uint64)
	// Recycle returns a retained message to the free list.
	Recycle(m *Message)
}

var (
	_ Port = (*Network)(nil)
	_ Port = (*Endpoint)(nil)
)
