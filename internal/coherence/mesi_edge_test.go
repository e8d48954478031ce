package coherence

import (
	"testing"

	"mcmsim/internal/network"
)

// TestMESIExclusiveCleanGrant: under MESI a GetS for an uncached line is
// granted exclusive-clean — a DataEx with zero pending acks — and the
// directory tracks the reader as owner. Under MSI the same request stays a
// plain shared Data grant.
func TestMESIExclusiveCleanGrant(t *testing.T) {
	r := newDirRig(2, ProtoMESI)
	r.send(network.Message{Type: MsgGetS, Src: 0, Dst: r.dir.ID, Line: 0x40})
	grants := r.nodes[0].byType(MsgDataEx)
	if len(grants) != 1 || grants[0].AckCount != 0 {
		t.Fatalf("DataEx grants = %+v, want one grant with zero acks", grants)
	}
	if got := r.dir.StateOf(0x40); got != "exclusive(0)" {
		t.Fatalf("dir state = %s, want exclusive(0)", got)
	}
	if r.dir.Stats.Counter("exclusive_clean_grants").Value() != 1 {
		t.Error("exclusive-clean grant not counted")
	}
	// A second reader must demote the line to shared via a recall, exactly
	// like an MSI dirty owner.
	r.send(network.Message{Type: MsgGetS, Src: 1, Dst: r.dir.ID, Line: 0x40})
	if recalls := r.nodes[0].byType(network.MsgRecallShare); len(recalls) != 1 {
		t.Fatalf("recalls to the exclusive-clean owner = %d, want 1", len(recalls))
	}

	m := newDirRig(2, ProtoInvalidate)
	m.send(network.Message{Type: MsgGetS, Src: 0, Dst: m.dir.ID, Line: 0x40})
	if ex := m.nodes[0].byType(MsgDataEx); len(ex) != 0 {
		t.Fatalf("MSI granted DataEx on a read: %+v", ex)
	}
	if data := m.nodes[0].byType(MsgData); len(data) != 1 {
		t.Fatalf("MSI shared grants = %d, want 1", len(data))
	}
}

// TestMESISilentEvictionRegrant: an exclusive-clean owner may drop its line
// without telling the directory. Its own later re-request is the proof of
// that eviction — a writeback for a dirty line would still be blocking the
// cache's re-request — so the directory re-grants exclusively with zero
// acks instead of recalling the requester from itself.
func TestMESISilentEvictionRegrant(t *testing.T) {
	for _, req := range []network.MsgType{MsgGetS, MsgGetX} {
		r := newDirRig(2, ProtoMESI)
		r.send(network.Message{Type: MsgGetS, Src: 0, Dst: r.dir.ID, Line: 0x40})
		if got := r.dir.StateOf(0x40); got != "exclusive(0)" {
			t.Fatalf("%v: dir state = %s", req, got)
		}
		// Cache 0 silently evicts (no message at all), then requests again.
		r.send(network.Message{Type: req, Src: 0, Dst: r.dir.ID, Line: 0x40})
		grants := r.nodes[0].byType(MsgDataEx)
		if len(grants) != 2 || grants[1].AckCount != 0 {
			t.Fatalf("%v: DataEx grants = %+v, want re-grant with zero acks", req, grants)
		}
		if got := r.dir.StateOf(0x40); got != "exclusive(0)" {
			t.Fatalf("%v: dir state after re-grant = %s", req, got)
		}
		if r.dir.Stats.Counter("silent_eviction_regrants").Value() != 1 {
			t.Errorf("%v: re-grant not counted", req)
		}
		if recalls := r.nodes[0].byType(network.MsgRecallInv); len(recalls) != 0 {
			t.Errorf("%v: directory recalled the requester from itself", req)
		}
	}
}

// TestMESIRecallNoCopyCompletion: a recall answered with a no-copy
// writeback (nil data — the owner held the line exclusive-clean or had
// silently dropped it) must complete without touching memory, and the
// waiting request is served from memory's still-valid copy.
func TestMESIRecallNoCopyCompletion(t *testing.T) {
	r := newDirRig(2, ProtoMESI)
	r.mem.WriteWord(0x40, 7)
	r.send(network.Message{Type: MsgGetS, Src: 0, Dst: r.dir.ID, Line: 0x40})

	// Cache 1 wants to write; the exclusive-clean owner is recalled.
	r.send(network.Message{Type: MsgGetX, Src: 1, Dst: r.dir.ID, Line: 0x40})
	recalls := r.nodes[0].byType(network.MsgRecallInv)
	if len(recalls) != 1 {
		t.Fatalf("recalls = %d, want 1", len(recalls))
	}
	// The owner answers without a copy: silent eviction already happened
	// (or the line was clean and invalidated on the spot).
	r.send(network.Message{
		Type: MsgWriteBack, Src: 0, Dst: r.dir.ID, Line: 0x40,
		Data: nil, Tag: recalls[0].Tag, AckCount: 0,
	})
	if got := r.mem.ReadWord(0x40); got != 7 {
		t.Errorf("no-copy recall response disturbed memory: %d, want 7", got)
	}
	grants := r.nodes[1].byType(MsgDataEx)
	if len(grants) != 1 || grants[0].AckCount != 0 {
		t.Fatalf("writer grants = %+v, want one DataEx with zero acks", grants)
	}
	if grants[0].Data[0] != 7 {
		t.Errorf("writer granted data %v, want memory's copy 7", grants[0].Data)
	}
	if got := r.dir.StateOf(0x40); got != "exclusive(1)" {
		t.Errorf("dir state = %s, want exclusive(1)", got)
	}
}

// TestMESIBusyLineSelfCompletion: the three-way race behind the dispatch
// fix. Cache 0 silently evicts its exclusive-clean line; cache 1's GetX
// makes the directory recall cache 0 (line busy); cache 0's own re-request
// then arrives at the busy line. That request proves the recall can never
// be answered with data — the directory completes the recall with no copy,
// grants cache 1, and only then lets cache 0's request contend (recalling
// the new owner). Nothing deadlocks and both requesters are served.
func TestMESIBusyLineSelfCompletion(t *testing.T) {
	r := newDirRig(2, ProtoMESI)
	r.mem.WriteWord(0x40, 7)
	r.send(network.Message{Type: MsgGetS, Src: 0, Dst: r.dir.ID, Line: 0x40})

	// Deliver GetX and GetS in one drain so the GetS hits the busy window.
	r.net.Post(network.Message{Type: MsgGetX, Src: 1, Dst: r.dir.ID, Line: 0x40}, r.cycle)
	r.net.Post(network.Message{Type: MsgGetS, Src: 0, Dst: r.dir.ID, Line: 0x40}, r.cycle)
	r.drain()

	if r.dir.Stats.Counter("recall_self_completions").Value() != 1 {
		t.Error("self-completion not taken")
	}
	if got := r.mem.ReadWord(0x40); got != 7 {
		t.Errorf("self-completed recall disturbed memory: %d, want 7", got)
	}
	// Cache 1 was granted exclusivity; cache 0's follow-up GetS now recalls
	// cache 1 — answer it and check cache 0 is finally served.
	if grants := r.nodes[1].byType(MsgDataEx); len(grants) != 1 || grants[0].AckCount != 0 {
		t.Fatalf("writer grants = %+v, want one DataEx with zero acks", grants)
	}
	recalls := r.nodes[1].byType(network.MsgRecallShare)
	if len(recalls) != 1 {
		t.Fatalf("recalls to the new owner = %d, want 1", len(recalls))
	}
	r.send(network.Message{
		Type: MsgWriteBack, Src: 1, Dst: r.dir.ID, Line: 0x40,
		Data: []int64{9, 9, 9, 9}, Tag: recalls[0].Tag, AckCount: 1,
	})
	if data := r.nodes[0].byType(MsgData); len(data) != 1 || data[0].Data[0] != 9 {
		t.Fatalf("cache 0's queued GetS answered with %+v, want the recalled data 9", data)
	}
	if got := r.dir.StateOf(0x40); got != "shared(x2)" {
		t.Errorf("final dir state = %s, want shared(x2)", got)
	}
}
