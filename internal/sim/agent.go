package sim

import (
	"mcmsim/internal/memsys"
	"mcmsim/internal/network"
)

// agent is a cacheless network node that performs directory-serialized
// writes on behalf of the test harness — the "another processor writes the
// location" actor in the paper's examples. Under the invalidation protocol
// the directory invalidates or recalls all cached copies before applying
// the write, so caches observe exactly the coherence transactions the
// detection mechanism of §4 monitors. The agent node's shard performs the
// scheduled writes (System.sendDueWrites); the agent itself only sends
// them and counts their completions.
type agent struct {
	id    network.NodeID
	homes []network.NodeID
	net   network.Port
	geom  memsys.Geometry

	outstanding int // writes awaiting UpdateDone
}

func newAgent(id network.NodeID, net *network.Network, homes []network.NodeID, geom memsys.Geometry) *agent {
	a := &agent{id: id, homes: homes, net: net, geom: geom}
	net.Attach(id, a)
	return a
}

// setPort rebinds the agent onto a shard-private endpoint (and back).
func (a *agent) setPort(p network.Port) { a.net = p }

// write sends one external word write into the memory system.
func (a *agent) write(w ScheduledWrite, now uint64) {
	a.outstanding++
	line := a.geom.LineOf(w.Addr)
	home := a.homes[(line/a.geom.LineWords)%uint64(len(a.homes))]
	a.net.Post(network.Message{
		Type: network.MsgUpdateReq, Src: a.id, Dst: home,
		Line: line, Word: w.Addr, Value: w.Value,
	}, now)
}

// idle reports whether all sent writes have completed at the directory.
func (a *agent) idle() bool { return a.outstanding == 0 }

// nextWriteAt is the agent node's own wake: the cycle of the first
// scheduled write not yet performed, ok=false when none remain. The
// sequential loop's horizon and NodeShard.wake both read it.
func (s *System) nextWriteAt() (uint64, bool) {
	if s.nextWrite < len(s.writes) {
		return s.writes[s.nextWrite].Cycle, true
	}
	return 0, false
}

// sendDueWrites is the agent node's tick, the writes phase of a cycle:
// the agent sends every scheduled write due at or before now, in schedule
// order. Step keeps its own copy of the loop as the dense reference.
func (s *System) sendDueWrites(now uint64) {
	for s.nextWrite < len(s.writes) && s.writes[s.nextWrite].Cycle <= now {
		s.agent.write(s.writes[s.nextWrite], now)
		s.nextWrite++
	}
}

// HandleMessage implements network.Handler: the agent counts completions
// (invalidation acks from sharers are informational).
func (a *agent) HandleMessage(m *network.Message, now uint64) {
	switch m.Type {
	case network.MsgUpdateDone:
		a.outstanding--
	case network.MsgInvAck, network.MsgUpdateAck:
		// Sharers acknowledging; nothing to do.
	default:
		panic("agent: unexpected message " + m.Type.String())
	}
}
