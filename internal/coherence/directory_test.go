package coherence

import (
	"testing"

	"mcmsim/internal/memsys"
	"mcmsim/internal/network"
)

// stub records messages delivered to a cache-side node. It retains each
// message so the pool cannot reclaim it while assertions still inspect it.
type stub struct {
	got []*network.Message
}

func (s *stub) HandleMessage(m *network.Message, now uint64) {
	m.Retain()
	s.got = append(s.got, m)
}

func (s *stub) byType(t network.MsgType) []*network.Message {
	var out []*network.Message
	for _, m := range s.got {
		if m.Type == t {
			out = append(out, m)
		}
	}
	return out
}

type dirRig struct {
	net   *network.Network
	mem   *memsys.Memory
	dir   *Directory
	nodes []*stub
	cycle uint64
}

func newDirRig(nCaches int, proto Protocol) *dirRig {
	geom := memsys.NewGeometry(4)
	r := &dirRig{
		net: network.New(1),
		mem: memsys.NewMemory(geom),
	}
	r.dir = New(network.NodeID(nCaches), r.net, r.mem, 1, proto)
	for i := 0; i < nCaches; i++ {
		s := &stub{}
		r.nodes = append(r.nodes, s)
		r.net.Attach(network.NodeID(i), s)
	}
	return r
}

func (r *dirRig) send(m network.Message) {
	r.net.Post(m, r.cycle)
	r.drain()
}

func (r *dirRig) drain() {
	for i := 0; i < 100; i++ {
		r.cycle++
		r.net.Deliver(r.cycle)
		if r.net.Pending() == 0 {
			return
		}
	}
}

func TestGetSGrantsSharedData(t *testing.T) {
	r := newDirRig(2, ProtoInvalidate)
	r.mem.WriteLine(0x40, []int64{1, 2, 3, 4})
	r.send(network.Message{Type: MsgGetS, Src: 0, Dst: r.dir.ID, Line: 0x40})
	data := r.nodes[0].byType(MsgData)
	if len(data) != 1 {
		t.Fatalf("grants = %d", len(data))
	}
	if data[0].Data[2] != 3 {
		t.Errorf("grant data = %v", data[0].Data)
	}
	if r.dir.StateOf(0x40) != "shared(x1)" {
		t.Errorf("dir state = %s", r.dir.StateOf(0x40))
	}
}

func TestGetXInvalidatesSharersAndReportsAckCount(t *testing.T) {
	r := newDirRig(3, ProtoInvalidate)
	r.send(network.Message{Type: MsgGetS, Src: 0, Dst: r.dir.ID, Line: 0x40})
	r.send(network.Message{Type: MsgGetS, Src: 1, Dst: r.dir.ID, Line: 0x40})
	r.send(network.Message{Type: MsgGetX, Src: 2, Dst: r.dir.ID, Line: 0x40})
	grants := r.nodes[2].byType(MsgDataEx)
	if len(grants) != 1 || grants[0].AckCount != 2 {
		t.Fatalf("DataEx grants = %+v", grants)
	}
	for i := 0; i < 2; i++ {
		invs := r.nodes[i].byType(MsgInv)
		if len(invs) != 1 || invs[0].Requester != 2 {
			t.Errorf("node %d invs = %+v", i, invs)
		}
	}
	if r.dir.StateOf(0x40) != "exclusive(2)" {
		t.Errorf("dir state = %s", r.dir.StateOf(0x40))
	}
}

func TestGetXFromSharerSkipsSelfInvalidation(t *testing.T) {
	r := newDirRig(2, ProtoInvalidate)
	r.send(network.Message{Type: MsgGetS, Src: 0, Dst: r.dir.ID, Line: 0x40})
	r.send(network.Message{Type: MsgGetX, Src: 0, Dst: r.dir.ID, Line: 0x40})
	if len(r.nodes[0].byType(MsgInv)) != 0 {
		t.Error("requester must not be invalidated on upgrade")
	}
	grants := r.nodes[0].byType(MsgDataEx)
	if len(grants) != 1 || grants[0].AckCount != 0 {
		t.Errorf("upgrade grant = %+v", grants)
	}
}

func TestRecallOnGetSOfDirtyLine(t *testing.T) {
	r := newDirRig(2, ProtoInvalidate)
	r.send(network.Message{Type: MsgGetX, Src: 0, Dst: r.dir.ID, Line: 0x40})
	r.send(network.Message{Type: MsgGetS, Src: 1, Dst: r.dir.ID, Line: 0x40})
	recalls := r.nodes[0].byType(MsgRecallShare)
	if len(recalls) != 1 {
		t.Fatalf("recalls = %d", len(recalls))
	}
	if !(!r.dir.Quiescent()) {
		t.Error("line must be busy during the recall")
	}
	// Owner responds with the dirty data, retaining a shared copy.
	r.send(network.Message{
		Type: MsgWriteBack, Src: 0, Dst: r.dir.ID, Line: 0x40,
		Data: []int64{9, 9, 9, 9}, Tag: recalls[0].Tag, AckCount: 1,
	})
	grants := r.nodes[1].byType(MsgData)
	if len(grants) != 1 || grants[0].Data[0] != 9 {
		t.Fatalf("reader grant = %+v", grants)
	}
	if r.mem.ReadWord(0x40) != 9 {
		t.Error("recall data not written to memory")
	}
	if r.dir.StateOf(0x40) != "shared(x2)" {
		t.Errorf("dir state = %s, want shared(x2)", r.dir.StateOf(0x40))
	}
	if !r.dir.Quiescent() {
		t.Error("line still busy after recall response")
	}
}

func TestQueuedRequestsServedAfterRecall(t *testing.T) {
	r := newDirRig(3, ProtoInvalidate)
	r.send(network.Message{Type: MsgGetX, Src: 0, Dst: r.dir.ID, Line: 0x40})
	// Two readers pile up while the line is busy.
	r.net.Post(network.Message{Type: MsgGetS, Src: 1, Dst: r.dir.ID, Line: 0x40}, r.cycle)
	r.net.Post(network.Message{Type: MsgGetS, Src: 2, Dst: r.dir.ID, Line: 0x40}, r.cycle)
	r.drain()
	recalls := r.nodes[0].byType(MsgRecallShare)
	if len(recalls) != 1 {
		t.Fatalf("recalls = %d (queued requests must not re-recall)", len(recalls))
	}
	r.send(network.Message{
		Type: MsgWriteBack, Src: 0, Dst: r.dir.ID, Line: 0x40,
		Data: []int64{7, 0, 0, 0}, Tag: recalls[0].Tag, AckCount: 1,
	})
	if len(r.nodes[1].byType(MsgData)) != 1 {
		t.Error("first queued reader not served")
	}
	if len(r.nodes[2].byType(MsgData)) != 1 {
		t.Error("second queued reader not served")
	}
	if r.dir.StateOf(0x40) != "shared(x3)" {
		t.Errorf("dir state = %s", r.dir.StateOf(0x40))
	}
}

func TestVoluntaryWritebackAcceptedAndAcked(t *testing.T) {
	r := newDirRig(1, ProtoInvalidate)
	r.send(network.Message{Type: MsgGetX, Src: 0, Dst: r.dir.ID, Line: 0x40})
	grant := r.nodes[0].byType(MsgDataEx)[0]
	r.send(network.Message{
		Type: MsgWriteBack, Src: 0, Dst: r.dir.ID, Line: 0x40,
		Data: []int64{5, 6, 7, 8}, Tag: grant.Tag,
	})
	if len(r.nodes[0].byType(MsgWBAck)) != 1 {
		t.Fatal("voluntary writeback not acked")
	}
	if r.mem.ReadWord(0x42) != 7 {
		t.Error("writeback data not stored")
	}
	if r.dir.StateOf(0x40) != "uncached" {
		t.Errorf("dir state = %s", r.dir.StateOf(0x40))
	}
}

func TestStaleWritebackDropped(t *testing.T) {
	r := newDirRig(2, ProtoInvalidate)
	r.send(network.Message{Type: MsgGetX, Src: 0, Dst: r.dir.ID, Line: 0x40})
	grant0 := r.nodes[0].byType(MsgDataEx)[0]
	// Ownership moves on: node 1 takes the line; node 0 responds to the
	// recall from its writeback buffer.
	r.net.Post(network.Message{Type: MsgGetX, Src: 1, Dst: r.dir.ID, Line: 0x40}, r.cycle)
	r.drain()
	recall := r.nodes[0].byType(MsgRecallInv)[0]
	r.send(network.Message{
		Type: MsgWriteBack, Src: 0, Dst: r.dir.ID, Line: 0x40,
		Data: []int64{3, 0, 0, 0}, Tag: recall.Tag, AckCount: 0,
	})
	// The stale voluntary writeback (old grant tag) arrives afterwards.
	r.send(network.Message{
		Type: MsgWriteBack, Src: 0, Dst: r.dir.ID, Line: 0x40,
		Data: []int64{3, 0, 0, 0}, Tag: grant0.Tag,
	})
	if r.dir.Stats.Counter("stale_writebacks").Value() != 1 {
		t.Error("stale writeback not recognized")
	}
	if r.dir.StateOf(0x40) != "exclusive(1)" {
		t.Errorf("stale writeback corrupted state: %s", r.dir.StateOf(0x40))
	}
	if len(r.nodes[0].byType(MsgWBAck)) == 0 {
		t.Error("stale writeback still needs an ack to release the buffer")
	}
}

func TestReplaceHintPrunesSharer(t *testing.T) {
	r := newDirRig(2, ProtoInvalidate)
	r.send(network.Message{Type: MsgGetS, Src: 0, Dst: r.dir.ID, Line: 0x40})
	r.send(network.Message{Type: MsgGetS, Src: 1, Dst: r.dir.ID, Line: 0x40})
	r.send(network.Message{Type: MsgReplaceHint, Src: 0, Dst: r.dir.ID, Line: 0x40})
	if r.dir.StateOf(0x40) != "shared(x1)" {
		t.Errorf("state after hint = %s", r.dir.StateOf(0x40))
	}
	r.send(network.Message{Type: MsgReplaceHint, Src: 1, Dst: r.dir.ID, Line: 0x40})
	if r.dir.StateOf(0x40) != "uncached" {
		t.Errorf("state after all hints = %s", r.dir.StateOf(0x40))
	}
	// After pruning, a write needs no invalidations.
	r.send(network.Message{Type: MsgGetX, Src: 0, Dst: r.dir.ID, Line: 0x40})
	if g := r.nodes[0].byType(MsgDataEx); len(g) != 1 || g[0].AckCount != 0 {
		t.Errorf("grant after prune = %+v", g)
	}
}

func TestUpdateProtocolWriteAtDirectory(t *testing.T) {
	r := newDirRig(2, ProtoUpdate)
	r.send(network.Message{Type: MsgGetS, Src: 0, Dst: r.dir.ID, Line: 0x40})
	r.send(network.Message{Type: MsgGetS, Src: 1, Dst: r.dir.ID, Line: 0x40})
	r.send(network.Message{Type: MsgUpdateReq, Src: 0, Dst: r.dir.ID, Line: 0x40, Word: 0x41, Value: 55})
	if r.mem.ReadWord(0x41) != 55 {
		t.Error("update not applied to memory")
	}
	ups := r.nodes[1].byType(MsgUpdate)
	if len(ups) != 1 || ups[0].Value != 55 || ups[0].Word != 0x41 {
		t.Fatalf("peer update = %+v", ups)
	}
	dones := r.nodes[0].byType(MsgUpdateDone)
	if len(dones) != 1 || dones[0].AckCount != 1 {
		t.Fatalf("update done = %+v", dones)
	}
	if len(r.nodes[0].byType(MsgUpdate)) != 0 {
		t.Error("writer must not receive its own update")
	}
}

func TestUpdateRMWAtDirectoryReturnsOldValue(t *testing.T) {
	r := newDirRig(1, ProtoUpdate)
	r.mem.WriteWord(0x41, 10)
	// SeqNo = kind+1; fetch-add (kind 1) of 5.
	r.send(network.Message{Type: MsgUpdateReq, Src: 0, Dst: r.dir.ID, Line: 0x40, Word: 0x41, Value: 5, SeqNo: 2})
	dones := r.nodes[0].byType(MsgUpdateDone)
	if len(dones) != 1 || dones[0].Value != 10 {
		t.Fatalf("RMW old value = %+v", dones)
	}
	if r.mem.ReadWord(0x41) != 15 {
		t.Errorf("RMW result = %d, want 15", r.mem.ReadWord(0x41))
	}
}

func TestNSTReadWrite(t *testing.T) {
	r := newDirRig(1, ProtoInvalidate)
	r.send(network.Message{Type: network.MsgMemWrite, Src: 0, Dst: r.dir.ID, Word: 0x99, Value: 4, Tag: 11})
	acks := r.nodes[0].byType(network.MsgMemWrAck)
	if len(acks) != 1 || acks[0].Tag != 11 {
		t.Fatalf("write ack = %+v", acks)
	}
	r.send(network.Message{Type: network.MsgMemRead, Src: 0, Dst: r.dir.ID, Word: 0x99, Tag: 12})
	resp := r.nodes[0].byType(network.MsgMemRdResp)
	if len(resp) != 1 || resp[0].Value != 4 || resp[0].Tag != 12 {
		t.Fatalf("read response = %+v", resp)
	}
}

func TestNSTRMWAtomicAtMemory(t *testing.T) {
	r := newDirRig(1, ProtoInvalidate)
	r.mem.WriteWord(0x50, 1)
	// Test-and-set wire encoding (kind 0 -> SeqNo 1).
	r.send(network.Message{Type: network.MsgMemWrite, Src: 0, Dst: r.dir.ID, Word: 0x50, Value: 0, SeqNo: 1, Tag: 5})
	acks := r.nodes[0].byType(network.MsgMemWrAck)
	if len(acks) != 1 || acks[0].Value != 1 {
		t.Fatalf("NST rmw old = %+v", acks)
	}
	if r.mem.ReadWord(0x50) != 1 {
		t.Error("test-and-set must leave 1")
	}
}

func TestProtocolString(t *testing.T) {
	if ProtoInvalidate.String() != "invalidate" || ProtoUpdate.String() != "update" {
		t.Error("protocol names wrong")
	}
}
