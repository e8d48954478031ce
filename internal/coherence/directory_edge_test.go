package coherence

import (
	"testing"

	"mcmsim/internal/network"
)

// TestStaleReplaceHintIgnoredAfterReassignment races an eviction hint with
// a remote write: cache 0's ReplaceHint is still in flight when cache 1's
// GetX reassigns the line exclusively. The stale hint must not disturb the
// new owner's state.
func TestStaleReplaceHintIgnoredAfterReassignment(t *testing.T) {
	r := newDirRig(2, ProtoInvalidate)
	r.send(network.Message{Type: MsgGetS, Src: 0, Dst: r.dir.ID, Line: 0x40})
	r.send(network.Message{Type: MsgGetX, Src: 1, Dst: r.dir.ID, Line: 0x40})
	if got := r.dir.StateOf(0x40); got != "exclusive(1)" {
		t.Fatalf("dir state = %s", got)
	}
	// The hint cache 0 posted when it evicted, delayed past the GetX.
	r.send(network.Message{Type: MsgReplaceHint, Src: 0, Dst: r.dir.ID, Line: 0x40})
	if got := r.dir.StateOf(0x40); got != "exclusive(1)" {
		t.Fatalf("stale hint disturbed ownership: %s", got)
	}
	if r.dir.Stats.Counter("replace_hints").Value() != 1 {
		t.Error("hint not counted")
	}
}

// TestReplaceHintPreventsSpuriousInvalidation checks that after the last
// sharer evicts (hint processed), a writer is granted exclusivity with zero
// pending acks — the directory must not invalidate the departed sharer.
func TestReplaceHintPreventsSpuriousInvalidation(t *testing.T) {
	r := newDirRig(2, ProtoInvalidate)
	r.send(network.Message{Type: MsgGetS, Src: 0, Dst: r.dir.ID, Line: 0x40})
	r.send(network.Message{Type: MsgReplaceHint, Src: 0, Dst: r.dir.ID, Line: 0x40})
	if got := r.dir.StateOf(0x40); got != "uncached" {
		t.Fatalf("dir state after last sharer left = %s", got)
	}
	r.send(network.Message{Type: MsgGetX, Src: 1, Dst: r.dir.ID, Line: 0x40})
	grants := r.nodes[1].byType(MsgDataEx)
	if len(grants) != 1 || grants[0].AckCount != 0 {
		t.Fatalf("DataEx grants = %+v, want one grant with zero acks", grants)
	}
	if invs := r.nodes[0].byType(MsgInv); len(invs) != 0 {
		t.Errorf("departed sharer received %d spurious invalidations", len(invs))
	}
}

// TestDuplicateWritebackAfterRecall sends the owner's voluntary writeback
// after the same data already returned via a recall response: the duplicate
// is stale (version mismatch), must not overwrite newer memory contents,
// and must still be acked so the evicting cache can free its buffer.
func TestDuplicateWritebackAfterRecall(t *testing.T) {
	r := newDirRig(2, ProtoInvalidate)
	r.send(network.Message{Type: MsgGetX, Src: 0, Dst: r.dir.ID, Line: 0x40})
	ownerTag := r.nodes[0].byType(MsgDataEx)[0].Tag

	// A reader triggers a recall; the owner answers it.
	r.send(network.Message{Type: MsgGetS, Src: 1, Dst: r.dir.ID, Line: 0x40})
	recalls := r.nodes[0].byType(network.MsgRecallShare)
	if len(recalls) != 1 {
		t.Fatalf("recalls = %d", len(recalls))
	}
	r.send(network.Message{
		Type: MsgWriteBack, Src: 0, Dst: r.dir.ID, Line: 0x40,
		Data: []int64{7, 7, 7, 7}, Tag: recalls[0].Tag, AckCount: 1,
	})
	if r.mem.ReadWord(0x40) != 7 {
		t.Fatal("recall response not written to memory")
	}

	// The owner's voluntary writeback with its original (now stale) grant
	// tag arrives afterwards, carrying older data.
	r.send(network.Message{
		Type: MsgWriteBack, Src: 0, Dst: r.dir.ID, Line: 0x40,
		Data: []int64{1, 1, 1, 1}, Tag: ownerTag,
	})
	if got := r.mem.ReadWord(0x40); got != 7 {
		t.Errorf("stale writeback overwrote memory: %d, want 7", got)
	}
	if r.dir.Stats.Counter("stale_writebacks").Value() == 0 {
		t.Error("stale writeback not classified as stale")
	}
	if acks := r.nodes[0].byType(network.MsgWBAck); len(acks) != 1 {
		t.Errorf("stale writeback acks = %d, want 1 (buffer must be freed)", len(acks))
	}
}
