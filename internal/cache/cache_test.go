package cache_test

import (
	"fmt"
	"math/rand"
	"testing"

	"mcmsim/internal/cache"
	"mcmsim/internal/coherence"
	"mcmsim/internal/memsys"
	"mcmsim/internal/network"
)

// harness wires N caches to a directory over a network, with recording
// clients, so protocol behaviour can be tested without processors.
type harness struct {
	net     *network.Network
	mem     *memsys.Memory
	dir     *coherence.Directory
	caches  []*cache.Cache
	clients []*client
	cycle   uint64
}

type completion struct {
	id    uint64
	value int64
	at    uint64
}

type event struct {
	line uint64
	kind cache.EventKind
	at   uint64
}

type client struct {
	completions []completion
	events      []event
}

func (c *client) AccessComplete(id uint64, value int64, now uint64) {
	c.completions = append(c.completions, completion{id, value, now})
}

func (c *client) CoherenceEvent(line uint64, kind cache.EventKind, now uint64) {
	c.events = append(c.events, event{line, kind, now})
}

func (c *client) done(id uint64) (int64, bool) {
	for _, comp := range c.completions {
		if comp.id == id {
			return comp.value, true
		}
	}
	return 0, false
}

func newHarness(t *testing.T, nCaches int, cfg cache.Config, lineWords uint64, proto coherence.Protocol) *harness {
	t.Helper()
	geom := memsys.NewGeometry(lineWords)
	h := &harness{
		net: network.New(5),
		mem: memsys.NewMemory(geom),
	}
	dirID := network.NodeID(nCaches)
	h.dir = coherence.New(dirID, h.net, h.mem, 2, proto)
	for i := 0; i < nCaches; i++ {
		cl := &client{}
		h.clients = append(h.clients, cl)
		h.caches = append(h.caches, cache.New(network.NodeID(i), dirID, h.net, geom, cfg, proto, cl))
	}
	return h
}

// run advances the harness n cycles.
func (h *harness) run(n uint64) {
	for i := uint64(0); i < n; i++ {
		h.net.Deliver(h.cycle)
		for _, c := range h.caches {
			c.Tick(h.cycle)
		}
		h.cycle++
	}
}

// settle runs until the network drains and no cache has pending work.
func (h *harness) settle(t *testing.T) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		busy := h.net.Pending() > 0 || !h.dir.Quiescent()
		for _, c := range h.caches {
			if c.PendingWork() {
				busy = true
			}
		}
		if !busy {
			return
		}
		h.run(1)
	}
	t.Fatal("harness did not settle")
}

func smallConfig() cache.Config {
	return cache.Config{Sets: 8, Ways: 2, MaxMSHRs: 4, HitLatency: 1}
}

func TestReadMissFillsShared(t *testing.T) {
	h := newHarness(t, 1, smallConfig(), 1, coherence.ProtoInvalidate)
	h.mem.WriteWord(0x40, 7)
	res := h.caches[0].Access(cache.Request{Kind: cache.ReqRead, ID: 1, Addr: 0x40}, h.cycle)
	if res != cache.Miss {
		t.Fatalf("first read = %v, want Miss", res)
	}
	h.settle(t)
	if v, ok := h.clients[0].done(1); !ok || v != 7 {
		t.Fatalf("read completion = %d,%v", v, ok)
	}
	if st := h.caches[0].StateOf(0x40); st != cache.Shared {
		t.Fatalf("state = %v, want shared", st)
	}
}

func TestReadHitLatency(t *testing.T) {
	h := newHarness(t, 1, smallConfig(), 1, coherence.ProtoInvalidate)
	h.caches[0].Access(cache.Request{Kind: cache.ReqRead, ID: 1, Addr: 0x40}, h.cycle)
	h.settle(t)
	start := h.cycle
	if res := h.caches[0].Access(cache.Request{Kind: cache.ReqRead, ID: 2, Addr: 0x40}, h.cycle); res != cache.Hit {
		t.Fatalf("second read = %v, want Hit", res)
	}
	h.settle(t)
	for _, comp := range h.clients[0].completions {
		if comp.id == 2 && comp.at != start+1 {
			t.Errorf("hit completed at %d, want %d", comp.at, start+1)
		}
	}
}

func TestWriteMissFillsModifiedAndWritesData(t *testing.T) {
	h := newHarness(t, 1, smallConfig(), 4, coherence.ProtoInvalidate)
	h.caches[0].Access(cache.Request{Kind: cache.ReqWrite, ID: 1, Addr: 0x42, Data: 9}, h.cycle)
	h.settle(t)
	if st := h.caches[0].StateOf(0x42); st != cache.Modified {
		t.Fatalf("state = %v, want exclusive", st)
	}
	if data := h.caches[0].DirtyLines()[0x40]; data == nil || data[2] != 9 {
		t.Fatalf("dirty line data = %v", data)
	}
}

func TestPrefetchThenDemandMerge(t *testing.T) {
	h := newHarness(t, 1, smallConfig(), 1, coherence.ProtoInvalidate)
	if res := h.caches[0].Access(cache.Request{Kind: cache.ReqPrefetch, Addr: 0x40}, h.cycle); res != cache.Miss {
		t.Fatalf("prefetch = %v", res)
	}
	if res := h.caches[0].Access(cache.Request{Kind: cache.ReqRead, ID: 1, Addr: 0x40}, h.cycle); res != cache.Merged {
		t.Fatalf("demand on in-flight prefetch = %v, want Merged", res)
	}
	// A second prefetch for the same line must be dropped, not duplicated.
	if res := h.caches[0].Access(cache.Request{Kind: cache.ReqPrefetch, Addr: 0x40}, h.cycle); res != cache.PrefetchDropped {
		t.Fatalf("duplicate prefetch = %v, want PrefetchDropped", res)
	}
	h.settle(t)
	if _, ok := h.clients[0].done(1); !ok {
		t.Fatal("merged demand read never completed")
	}
}

func TestPrefetchOnResidentLineDropped(t *testing.T) {
	h := newHarness(t, 1, smallConfig(), 1, coherence.ProtoInvalidate)
	h.caches[0].Access(cache.Request{Kind: cache.ReqRead, ID: 1, Addr: 0x40}, h.cycle)
	h.settle(t)
	if res := h.caches[0].Access(cache.Request{Kind: cache.ReqPrefetch, Addr: 0x40}, h.cycle); res != cache.PrefetchDropped {
		t.Fatalf("prefetch on resident line = %v", res)
	}
	// But an exclusive prefetch on a shared line upgrades.
	if res := h.caches[0].Access(cache.Request{Kind: cache.ReqPrefetchEx, Addr: 0x40}, h.cycle); res != cache.Miss {
		t.Fatalf("exclusive prefetch on shared line = %v, want Miss (upgrade)", res)
	}
	h.settle(t)
	if st := h.caches[0].StateOf(0x40); st != cache.Modified {
		t.Fatalf("state after upgrade prefetch = %v", st)
	}
}

func TestWriteInvalidatesRemoteSharer(t *testing.T) {
	h := newHarness(t, 2, smallConfig(), 1, coherence.ProtoInvalidate)
	h.caches[0].Access(cache.Request{Kind: cache.ReqRead, ID: 1, Addr: 0x40}, h.cycle)
	h.settle(t)
	h.caches[1].Access(cache.Request{Kind: cache.ReqWrite, ID: 2, Addr: 0x40, Data: 5}, h.cycle)
	h.settle(t)
	if st := h.caches[0].StateOf(0x40); st != cache.Invalid {
		t.Fatalf("sharer not invalidated: %v", st)
	}
	// The sharer's client must have seen the invalidation event (the
	// speculative-load buffer's detection signal).
	sawInv := false
	for _, ev := range h.clients[0].events {
		if ev.line == 0x40 && ev.kind == cache.EvInvalidate {
			sawInv = true
		}
	}
	if !sawInv {
		t.Error("invalidation event not reported to the client")
	}
}

func TestReadRecallsDirtyRemote(t *testing.T) {
	h := newHarness(t, 2, smallConfig(), 1, coherence.ProtoInvalidate)
	h.caches[0].Access(cache.Request{Kind: cache.ReqWrite, ID: 1, Addr: 0x40, Data: 11}, h.cycle)
	h.settle(t)
	h.caches[1].Access(cache.Request{Kind: cache.ReqRead, ID: 2, Addr: 0x40}, h.cycle)
	h.settle(t)
	if v, ok := h.clients[1].done(2); !ok || v != 11 {
		t.Fatalf("reader got %d,%v, want 11", v, ok)
	}
	if st := h.caches[0].StateOf(0x40); st != cache.Shared {
		t.Fatalf("old owner state = %v, want shared (downgrade)", st)
	}
	if h.mem.ReadWord(0x40) != 11 {
		t.Error("recall did not write memory back")
	}
}

func TestRMWAtomicity(t *testing.T) {
	h := newHarness(t, 1, smallConfig(), 1, coherence.ProtoInvalidate)
	h.mem.WriteWord(0x40, 10)
	h.caches[0].Access(cache.Request{Kind: cache.ReqRMW, ID: 1, Addr: 0x40, Data: 5, RMW: 1 /* fetch-add */}, h.cycle)
	h.settle(t)
	if v, ok := h.clients[0].done(1); !ok || v != 10 {
		t.Fatalf("rmw old value = %d,%v, want 10", v, ok)
	}
	if data := h.caches[0].DirtyLines()[0x40]; data == nil || data[0] != 15 {
		t.Fatalf("rmw result = %v, want 15", data)
	}
}

func TestReadExReturnsValueAndOwnership(t *testing.T) {
	h := newHarness(t, 1, smallConfig(), 1, coherence.ProtoInvalidate)
	h.mem.WriteWord(0x40, 3)
	h.caches[0].Access(cache.Request{Kind: cache.ReqReadEx, ID: 1, Addr: 0x40}, h.cycle)
	h.settle(t)
	if v, ok := h.clients[0].done(1); !ok || v != 3 {
		t.Fatalf("read-ex value = %d,%v", v, ok)
	}
	if st := h.caches[0].StateOf(0x40); st != cache.Modified {
		t.Fatalf("read-ex state = %v, want exclusive", st)
	}
	if data := h.caches[0].DirtyLines()[0x40]; data[0] != 3 {
		t.Error("read-ex must not modify the data")
	}
}

func TestEvictionWritesBackAndNotifies(t *testing.T) {
	cfg := cache.Config{Sets: 1, Ways: 1, MaxMSHRs: 4, HitLatency: 1}
	h := newHarness(t, 1, cfg, 1, coherence.ProtoInvalidate)
	h.caches[0].Access(cache.Request{Kind: cache.ReqWrite, ID: 1, Addr: 0x40, Data: 7}, h.cycle)
	h.settle(t)
	// Second line maps to the same (only) set: evicts the dirty line.
	h.caches[0].Access(cache.Request{Kind: cache.ReqRead, ID: 2, Addr: 0x41}, h.cycle)
	h.settle(t)
	if h.mem.ReadWord(0x40) != 7 {
		t.Error("dirty victim not written back")
	}
	sawReplace := false
	for _, ev := range h.clients[0].events {
		if ev.line == 0x40 && ev.kind == cache.EvReplace {
			sawReplace = true
		}
	}
	if !sawReplace {
		t.Error("replacement event not reported (footnote 3 detection)")
	}
	if st := h.caches[0].StateOf(0x41); st != cache.Shared {
		t.Errorf("new line state = %v", st)
	}
}

func TestMSHRLimitBlocks(t *testing.T) {
	cfg := smallConfig() // MaxMSHRs: 4
	h := newHarness(t, 1, cfg, 1, coherence.ProtoInvalidate)
	for i := 0; i < 4; i++ {
		res := h.caches[0].Access(cache.Request{Kind: cache.ReqRead, ID: uint64(i), Addr: uint64(0x100 + i*8)}, h.cycle)
		if res != cache.Miss {
			t.Fatalf("miss %d = %v", i, res)
		}
	}
	if res := h.caches[0].Access(cache.Request{Kind: cache.ReqRead, ID: 99, Addr: 0x200}, h.cycle); res != cache.Blocked {
		t.Fatalf("5th outstanding miss = %v, want Blocked", res)
	}
	h.settle(t)
}

func TestUpdateProtocolPropagatesWord(t *testing.T) {
	h := newHarness(t, 2, smallConfig(), 4, coherence.ProtoUpdate)
	// Both caches read the line.
	h.caches[0].Access(cache.Request{Kind: cache.ReqRead, ID: 1, Addr: 0x40}, h.cycle)
	h.caches[1].Access(cache.Request{Kind: cache.ReqRead, ID: 2, Addr: 0x40}, h.cycle)
	h.settle(t)
	// Cache 0 writes: cache 1's copy must be updated, not invalidated.
	h.caches[0].Access(cache.Request{Kind: cache.ReqWrite, ID: 3, Addr: 0x41, Data: 99}, h.cycle)
	h.settle(t)
	if _, ok := h.clients[0].done(3); !ok {
		t.Fatal("update-protocol write never completed")
	}
	if st := h.caches[1].StateOf(0x40); st != cache.Shared {
		t.Fatalf("peer state = %v, want shared (update keeps copies)", st)
	}
	sawUpdate := false
	for _, ev := range h.clients[1].events {
		if ev.line == 0x40 && ev.kind == cache.EvUpdate {
			sawUpdate = true
		}
	}
	if !sawUpdate {
		t.Error("update event not reported to peer client")
	}
	if h.mem.ReadWord(0x41) != 99 {
		t.Error("update protocol must write through to memory")
	}
	// Read back through cache 1: must see the new value.
	h.caches[1].Access(cache.Request{Kind: cache.ReqRead, ID: 4, Addr: 0x41}, h.cycle)
	h.settle(t)
	if v, ok := h.clients[1].done(4); !ok || v != 99 {
		t.Fatalf("peer read = %d,%v, want 99", v, ok)
	}
}

func TestUpdateProtocolRejectsExclusivePrefetch(t *testing.T) {
	h := newHarness(t, 1, smallConfig(), 1, coherence.ProtoUpdate)
	if res := h.caches[0].Access(cache.Request{Kind: cache.ReqPrefetchEx, Addr: 0x40}, h.cycle); res != cache.PrefetchDropped {
		t.Fatalf("exclusive prefetch under update protocol = %v, want dropped (§3.1)", res)
	}
}

func TestFalseSharingInvalidationEvent(t *testing.T) {
	h := newHarness(t, 2, smallConfig(), 4, coherence.ProtoInvalidate)
	h.caches[0].Access(cache.Request{Kind: cache.ReqRead, ID: 1, Addr: 0x40}, h.cycle)
	h.settle(t)
	// Cache 1 writes a DIFFERENT word of the same line.
	h.caches[1].Access(cache.Request{Kind: cache.ReqWrite, ID: 2, Addr: 0x43, Data: 1}, h.cycle)
	h.settle(t)
	// Cache 0's client must see an invalidation for the whole line (the
	// conservative false-sharing policy of footnote 2).
	saw := false
	for _, ev := range h.clients[0].events {
		if ev.line == 0x40 && ev.kind == cache.EvInvalidate {
			saw = true
		}
	}
	if !saw {
		t.Error("false-sharing invalidation not reported")
	}
}

// TestCoherenceInvariantRandom drives random reads/writes/RMWs from several
// caches and checks two invariants at quiescence after every burst:
// (1) single-writer — at most one cache holds a line exclusively, and then
// no other cache holds it at all; (2) value integrity — a final read
// through any cache returns the globally last-written value.
func TestCoherenceInvariantRandom(t *testing.T) {
	for _, proto := range []coherence.Protocol{coherence.ProtoInvalidate, coherence.ProtoUpdate} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			h := newHarness(t, 3, smallConfig(), 4, proto)
			lines := []uint64{0x40, 0x80, 0xc0}
			lastWrite := map[uint64]int64{}
			id := uint64(100)
			for burst := 0; burst < 60; burst++ {
				c := rng.Intn(3)
				addr := lines[rng.Intn(len(lines))] + uint64(rng.Intn(4))
				id++
				if rng.Intn(2) == 0 {
					v := int64(burst*10 + c)
					res := h.caches[c].Access(cache.Request{Kind: cache.ReqWrite, ID: id, Addr: addr, Data: v}, h.cycle)
					if res == cache.Blocked {
						continue
					}
					lastWrite[addr] = v
				} else {
					h.caches[c].Access(cache.Request{Kind: cache.ReqRead, ID: id, Addr: addr}, h.cycle)
				}
				h.settle(t)

				for _, line := range lines {
					owners, sharers := 0, 0
					for _, ca := range h.caches {
						switch ca.StateOf(line) {
						case cache.Modified:
							owners++
						case cache.Shared:
							sharers++
						}
					}
					if owners > 1 || (owners == 1 && sharers > 0 && proto == coherence.ProtoInvalidate) {
						t.Fatalf("burst %d line %#x: owners=%d sharers=%d", burst, line, owners, sharers)
					}
				}
			}
			// Value integrity: read every written word through every cache.
			for addr, want := range lastWrite {
				for c := range h.caches {
					id++
					h.caches[c].Access(cache.Request{Kind: cache.ReqRead, ID: id, Addr: addr}, h.cycle)
					h.settle(t)
					if v, ok := h.clients[c].done(id); !ok || v != want {
						t.Fatalf("cache %d reads mem[%#x] = %d,%v, want %d", c, addr, v, ok, want)
					}
				}
			}
		})
	}
}

// TestConcurrentWritersConverge property-style stress: two caches write the
// same word alternately with random partial progress between writes. The
// cross-processor serialization order is coherence's choice (a write that
// merges into an in-flight fill may legitimately serialize before a remote
// write issued later), so the invariants checked are: every cache converges
// to the SAME final value, and that value is the last write of one of the
// two writers.
func TestConcurrentWritersConverge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		h := newHarness(t, 2, smallConfig(), 1, coherence.ProtoInvalidate)
		id := uint64(0)
		lastPer := map[int]int64{}
		for i := 0; i < 8; i++ {
			c := rng.Intn(2)
			id++
			v := int64(trial*100 + i + 1)
			if h.caches[c].Access(cache.Request{Kind: cache.ReqWrite, ID: id, Addr: 0x40, Data: v}, h.cycle) == cache.Blocked {
				h.settle(t)
				continue
			}
			lastPer[c] = v
			// Random partial progress between writes.
			h.run(uint64(rng.Intn(30)))
		}
		h.settle(t)
		var got [2]int64
		for c := 0; c < 2; c++ {
			id++
			h.caches[c].Access(cache.Request{Kind: cache.ReqRead, ID: id, Addr: 0x40}, h.cycle)
			h.settle(t)
			v, ok := h.clients[c].done(id)
			if !ok {
				t.Fatalf("trial %d: cache %d read never completed", trial, c)
			}
			got[c] = v
		}
		if got[0] != got[1] {
			t.Fatalf("trial %d: caches disagree: %d vs %d", trial, got[0], got[1])
		}
		if got[0] != lastPer[0] && got[0] != lastPer[1] {
			t.Fatalf("trial %d: final value %d is not either writer's last (%d, %d)",
				trial, got[0], lastPer[0], lastPer[1])
		}
	}
}

func TestStateStrings(t *testing.T) {
	for st, want := range map[cache.State]string{
		cache.Invalid: "invalid", cache.Shared: "shared", cache.Modified: "exclusive",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
	kinds := []cache.ReqKind{cache.ReqRead, cache.ReqWrite, cache.ReqRMW, cache.ReqPrefetch, cache.ReqPrefetchEx, cache.ReqReadEx}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] || s == "req(?)" {
			t.Errorf("bad kind name %q", s)
		}
		seen[s] = true
	}
}

func TestHarnessDeterminism(t *testing.T) {
	runOnce := func() string {
		h := newHarness(t, 2, smallConfig(), 4, coherence.ProtoInvalidate)
		h.caches[0].Access(cache.Request{Kind: cache.ReqWrite, ID: 1, Addr: 0x40, Data: 1}, h.cycle)
		h.caches[1].Access(cache.Request{Kind: cache.ReqWrite, ID: 2, Addr: 0x40, Data: 2}, h.cycle)
		h.settle(t)
		return fmt.Sprintf("%v|%v|%d", h.clients[0].completions, h.clients[1].completions, h.mem.ReadWord(0x40))
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Errorf("nondeterministic protocol behaviour:\n%s\n%s", a, b)
	}
}

func TestWriteMergeIntoSharedFillEscalates(t *testing.T) {
	h := newHarness(t, 1, smallConfig(), 1, coherence.ProtoInvalidate)
	// A read starts a shared fill; a write merges into it before the fill
	// returns: the cache must escalate to exclusive after installing.
	if res := h.caches[0].Access(cache.Request{Kind: cache.ReqRead, ID: 1, Addr: 0x40}, h.cycle); res != cache.Miss {
		t.Fatalf("read = %v", res)
	}
	if res := h.caches[0].Access(cache.Request{Kind: cache.ReqWrite, ID: 2, Addr: 0x40, Data: 9}, h.cycle); res != cache.Merged {
		t.Fatalf("write merge = %v", res)
	}
	h.settle(t)
	if _, ok := h.clients[0].done(1); !ok {
		t.Fatal("read never completed")
	}
	if _, ok := h.clients[0].done(2); !ok {
		t.Fatal("escalated write never completed")
	}
	if st := h.caches[0].StateOf(0x40); st != cache.Modified {
		t.Fatalf("state = %v, want exclusive after escalation", st)
	}
	if h.caches[0].Stats.Counter("escalations").Value() == 0 {
		t.Error("escalation not counted")
	}
}

func TestUpdateProtocolAckPooling(t *testing.T) {
	// Three sharers; one writes. The two UpdateAcks and the UpdateDone race
	// back to the writer; regardless of arrival order the write completes
	// exactly once.
	h := newHarness(t, 3, smallConfig(), 4, coherence.ProtoUpdate)
	for i := 0; i < 3; i++ {
		h.caches[i].Access(cache.Request{Kind: cache.ReqRead, ID: uint64(i + 1), Addr: 0x40}, h.cycle)
		h.settle(t)
	}
	h.caches[0].Access(cache.Request{Kind: cache.ReqWrite, ID: 10, Addr: 0x41, Data: 77}, h.cycle)
	h.settle(t)
	count := 0
	for _, comp := range h.clients[0].completions {
		if comp.id == 10 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("write completed %d times", count)
	}
	for i := 1; i < 3; i++ {
		h.caches[i].Access(cache.Request{Kind: cache.ReqRead, ID: uint64(20 + i), Addr: 0x41}, h.cycle)
		h.settle(t)
		if v, _ := h.clients[i].done(uint64(20 + i)); v != 77 {
			t.Errorf("sharer %d sees %d, want 77", i, v)
		}
	}
}

func TestBypassModeRoundTrips(t *testing.T) {
	h := newHarness(t, 1, smallConfig(), 1, coherence.ProtoInvalidate)
	h.caches[0].EnableBypass()
	if !h.caches[0].BypassEnabled() {
		t.Fatal("bypass not enabled")
	}
	h.caches[0].Access(cache.Request{Kind: cache.ReqWrite, ID: 1, Addr: 0x40, Data: 3}, h.cycle)
	h.settle(t)
	if h.mem.ReadWord(0x40) != 3 {
		t.Fatal("bypass write not applied at memory")
	}
	if st := h.caches[0].StateOf(0x40); st != cache.Invalid {
		t.Fatalf("bypass must not cache: state %v", st)
	}
	h.caches[0].Access(cache.Request{Kind: cache.ReqRead, ID: 2, Addr: 0x40}, h.cycle)
	h.settle(t)
	if v, ok := h.clients[0].done(2); !ok || v != 3 {
		t.Fatalf("bypass read = %d,%v", v, ok)
	}
	// Prefetches are meaningless without a cache.
	if res := h.caches[0].Access(cache.Request{Kind: cache.ReqPrefetch, Addr: 0x80}, h.cycle); res != cache.PrefetchDropped {
		t.Fatalf("bypass prefetch = %v", res)
	}
}

func TestDirtyLinesIncludesWritebackBuffer(t *testing.T) {
	cfg := cache.Config{Sets: 1, Ways: 1, MaxMSHRs: 4, HitLatency: 1}
	h := newHarness(t, 1, cfg, 1, coherence.ProtoInvalidate)
	h.caches[0].Access(cache.Request{Kind: cache.ReqWrite, ID: 1, Addr: 0x40, Data: 7}, h.cycle)
	h.settle(t)
	// Evict the dirty line; while the writeback is in flight the data must
	// still be visible through DirtyLines.
	h.caches[0].Access(cache.Request{Kind: cache.ReqRead, ID: 2, Addr: 0x41}, h.cycle)
	h.run(3) // WB sent but not yet acked
	if data := h.caches[0].DirtyLines()[0x40]; data == nil || data[0] != 7 {
		t.Errorf("writeback-buffered line missing from DirtyLines: %v", data)
	}
	h.settle(t)
}

func TestEventKindStrings(t *testing.T) {
	for ev, want := range map[cache.EventKind]string{
		cache.EvInvalidate: "invalidate", cache.EvUpdate: "update", cache.EvReplace: "replace",
	} {
		if ev.String() != want {
			t.Errorf("%d.String() = %q", ev, ev.String())
		}
	}
}
