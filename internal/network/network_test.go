package network

import (
	"testing"
	"testing/quick"
)

// collector copies delivered messages by value: the network recycles the
// delivered pointer once the handler returns.
type collector struct {
	got []Message
	at  []uint64
}

func (c *collector) HandleMessage(m *Message, now uint64) {
	c.got = append(c.got, *m)
	c.at = append(c.at, now)
}

func TestDeliveryAfterLatency(t *testing.T) {
	n := New(10)
	dst := &collector{}
	n.Attach(1, dst)
	n.Post(Message{Type: MsgGetS, Src: 0, Dst: 1, Line: 0x40}, 5)
	for cyc := uint64(0); cyc < 15; cyc++ {
		n.Deliver(cyc)
		if cyc < 15 && len(dst.got) != 0 {
			t.Fatalf("message delivered early at %d", cyc)
		}
	}
	n.Deliver(15)
	if len(dst.got) != 1 || dst.at[0] != 15 {
		t.Fatalf("message not delivered at 15: %v", dst.at)
	}
}

func TestSendAfterAddsServiceTime(t *testing.T) {
	n := New(10)
	dst := &collector{}
	n.Attach(1, dst)
	n.PostAfter(Message{Type: MsgData, Dst: 1}, 0, 7)
	n.Deliver(16)
	if len(dst.got) != 0 {
		t.Fatal("delivered before latency+service")
	}
	n.Deliver(17)
	if len(dst.got) != 1 {
		t.Fatal("not delivered at latency+service")
	}
}

func TestFIFOPerPair(t *testing.T) {
	n := New(5)
	dst := &collector{}
	n.Attach(1, dst)
	for i := 0; i < 10; i++ {
		n.Post(Message{Type: MsgGetS, Dst: 1, Tag: uint64(i)}, uint64(i))
	}
	n.Deliver(100)
	if len(dst.got) != 10 {
		t.Fatalf("delivered %d of 10", len(dst.got))
	}
	for i, m := range dst.got {
		if m.Tag != uint64(i) {
			t.Fatalf("message %d has tag %d: FIFO violated", i, m.Tag)
		}
	}
}

func TestSameCycleTieBreakBySendOrder(t *testing.T) {
	n := New(5)
	dst := &collector{}
	n.Attach(1, dst)
	n.Post(Message{Type: MsgData, Dst: 1, Tag: 1}, 0)
	n.Post(Message{Type: MsgInv, Dst: 1, Tag: 2}, 0)
	n.Deliver(5)
	if dst.got[0].Tag != 1 || dst.got[1].Tag != 2 {
		t.Error("same-cycle messages must deliver in send order")
	}
}

func TestPendingAndNextDelivery(t *testing.T) {
	n := New(3)
	n.Attach(1, &collector{})
	if _, ok := n.NextDelivery(); ok {
		t.Error("empty network reports a pending delivery")
	}
	n.Post(Message{Dst: 1}, 4)
	if n.Pending() != 1 {
		t.Errorf("pending = %d", n.Pending())
	}
	if at, ok := n.NextDelivery(); !ok || at != 7 {
		t.Errorf("next delivery = %d,%v", at, ok)
	}
	n.Deliver(7)
	if n.Pending() != 0 {
		t.Error("message not drained")
	}
}

func TestUnattachedDestinationPanics(t *testing.T) {
	n := New(1)
	n.Post(Message{Dst: 9}, 0)
	defer func() {
		if recover() == nil {
			t.Error("delivery to unattached node must panic")
		}
	}()
	n.Deliver(1)
}

func TestDoubleEnqueuePanics(t *testing.T) {
	n := New(1)
	n.Attach(1, &collector{})
	m := &Message{Dst: 1}
	n.enqueue(m, 1)
	defer func() {
		if recover() == nil {
			t.Error("re-sending an enqueued message must panic")
		}
	}()
	n.enqueue(m, 1)
}

func TestHopsByTypeCounting(t *testing.T) {
	n := New(1)
	n.Attach(1, &collector{})
	n.Post(Message{Type: MsgGetS, Dst: 1}, 0)
	n.Post(Message{Type: MsgGetS, Dst: 1}, 0)
	n.Post(Message{Type: MsgInv, Dst: 1}, 0)
	if n.HopsByType[MsgGetS] != 2 || n.HopsByType[MsgInv] != 1 || n.MessagesSent != 3 {
		t.Errorf("counters wrong: %v total=%d", n.HopsByType, n.MessagesSent)
	}
}

func TestMsgTypeStringsDistinct(t *testing.T) {
	types := []MsgType{
		MsgGetS, MsgGetX, MsgWriteBack, MsgReplaceHint,
		MsgData, MsgDataEx, MsgInv, MsgInvAck,
		MsgRecallShare, MsgRecallInv, MsgWBAck,
		MsgUpdateReq, MsgUpdate, MsgUpdateAck, MsgUpdateDone,
		MsgMemRead, MsgMemWrite, MsgMemRdResp, MsgMemWrAck,
	}
	seen := map[string]bool{}
	for _, typ := range types {
		s := typ.String()
		if s == "Msg(?)" {
			t.Errorf("type %d has no name", typ)
		}
		if seen[s] {
			t.Errorf("duplicate name %q", s)
		}
		seen[s] = true
	}
}

// TestDeliveryOrderProperty property: for arbitrary send times, deliveries
// arrive in non-decreasing delivery-time order and nothing is lost.
func TestDeliveryOrderProperty(t *testing.T) {
	f := func(sendTimes []uint16) bool {
		n := New(9)
		dst := &collector{}
		n.Attach(1, dst)
		for _, st := range sendTimes {
			n.Post(Message{Dst: 1}, uint64(st))
		}
		// Deliver in chunks to exercise partial drains.
		for cyc := uint64(0); cyc <= 1<<16+9; cyc += 1000 {
			n.Deliver(cyc)
		}
		n.Deliver(1<<17 + 10)
		if len(dst.got) != len(sendTimes) {
			return false
		}
		for i := 1; i < len(dst.at); i++ {
			if dst.at[i] < dst.at[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMsgTypeStringUnknown: String() on an out-of-range or unnamed type
// must degrade to a numeric form, not panic or index past the name table.
func TestMsgTypeStringUnknown(t *testing.T) {
	for _, typ := range []MsgType{numMsgTypes, MsgType(200), MsgType(255)} {
		got := typ.String()
		if got != "Msg("+itoa(uint8(typ))+")" {
			t.Errorf("MsgType(%d).String() = %q, want Msg(%d)", uint8(typ), got, uint8(typ))
		}
	}
}

func itoa(v uint8) string {
	if v == 0 {
		return "0"
	}
	var b [3]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = '0' + v%10
		v /= 10
	}
	return string(b[i:])
}

// TestMessagePoolRoundTrip: a posted message is recycled after delivery
// and the same backing object is reused by the next Post, and a message
// restored from a snapshot is recycled after delivery like any other.
func TestMessagePoolRoundTrip(t *testing.T) {
	n := New(3)
	dst := &collector{}
	n.Attach(1, dst)

	n.Post(Message{Type: MsgGetS, Dst: 1, Word: 0x40}, 0)
	n.Deliver(n.Latency() + 1)
	if len(dst.got) != 1 || dst.got[0].Word != 0x40 {
		t.Fatalf("first delivery wrong: %+v", dst.got)
	}
	if len(n.free) != 1 {
		t.Fatalf("free list has %d entries after delivery, want 1", len(n.free))
	}
	reused := n.free[0]

	n.Post(Message{Type: MsgInv, Dst: 1, Word: 0x80}, 100)
	if len(n.free) != 0 {
		t.Fatal("Post did not take the pooled message")
	}
	n.Deliver(100 + n.Latency() + 1)
	if len(dst.got) != 2 || dst.got[1].Type != MsgInv || dst.got[1].Word != 0x80 {
		t.Fatalf("second delivery wrong: %+v", dst.got)
	}
	if len(n.free) != 1 || n.free[0] != reused {
		t.Error("recycled message was not reused by the next Post")
	}

	// A restored in-flight message joins the pool once delivered.
	st, err := n.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	st.InFlight = []MessageState{{Type: MsgData, Dst: 1, Value: 9, Seq: st.NextSeq, Deliver: 200}}
	st.NextSeq++
	if err := n.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	n.Deliver(200)
	if len(dst.got) != 3 || dst.got[2].Value != 9 {
		t.Fatalf("restored delivery wrong: %+v", dst.got)
	}
	if len(n.free) != 2 {
		t.Errorf("free list has %d entries after the restored delivery, want 2", len(n.free))
	}
}

// TestRetainDefersRecycle: a handler that retains a pooled message keeps
// ownership; the network must not reclaim it at delivery. Recycling it
// later returns it to the pool exactly once.
func TestRetainDefersRecycle(t *testing.T) {
	n := New(3)
	var held *Message
	n.Attach(1, handlerFunc(func(m *Message, now uint64) {
		m.Retain()
		held = m
	}))
	n.Post(Message{Type: MsgGetX, Dst: 1, Word: 0x40}, 0)
	n.Deliver(n.Latency() + 1)
	if held == nil || held.Word != 0x40 {
		t.Fatalf("retained message lost: %+v", held)
	}
	if len(n.free) != 0 {
		t.Fatal("retained message was recycled at delivery")
	}
	n.Recycle(held)
	if len(n.free) != 1 {
		t.Fatal("explicit Recycle of a retained message did not pool it")
	}
	if held.Word != 0 || held.Type != 0 {
		t.Error("Recycle did not wipe the message")
	}
}

type handlerFunc func(*Message, uint64)

func (f handlerFunc) HandleMessage(m *Message, now uint64) { f(m, now) }
