package core

import (
	"testing"

	"mcmsim/internal/cache"
	"mcmsim/internal/coherence"
	"mcmsim/internal/isa"
	"mcmsim/internal/memsys"
	"mcmsim/internal/network"
)

// fakeCPU records LSU callbacks so the load/store unit can be unit-tested
// without the out-of-order core.
type fakeCPU struct {
	loads      map[uint64]int64
	stores     map[uint64]bool
	flushes    []uint64
	withdrawn  []uint64
	lsu        *LSU
	selfDriven bool // auto-signal StoreAtHead for every store on dispatch
}

func newFakeCPU() *fakeCPU {
	return &fakeCPU{loads: map[uint64]int64{}, stores: map[uint64]bool{}}
}

func (f *fakeCPU) LoadComplete(rob uint64, v int64, now uint64) { f.loads[rob] = v }
func (f *fakeCPU) StoreComplete(rob uint64, now uint64)         { f.stores[rob] = true }
func (f *fakeCPU) FlushFrom(rob uint64, now uint64) {
	f.flushes = append(f.flushes, rob)
	f.lsu.Flush(rob)
}
func (f *fakeCPU) InvalidateLoadValue(rob uint64) { f.withdrawn = append(f.withdrawn, rob) }

// rig is a one-LSU test system with a real cache, directory and network.
type rig struct {
	net   *network.Network
	mem   *memsys.Memory
	dir   *coherence.Directory
	cache *cache.Cache
	lsu   *LSU
	cpu   *fakeCPU
	cycle uint64
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	geom := memsys.NewGeometry(1)
	r := &rig{
		net: network.New(5),
		mem: memsys.NewMemory(geom),
		cpu: newFakeCPU(),
	}
	r.dir = coherence.New(1, r.net, r.mem, 2, coherence.ProtoInvalidate)
	r.cache = cache.New(0, 1, r.net, geom, cache.DefaultConfig(), coherence.ProtoInvalidate, nil)
	r.lsu = NewLSU(0, cfg, r.cache, geom)
	r.cache.SetClient(r.lsu)
	r.lsu.SetCPU(r.cpu)
	r.cpu.lsu = r.lsu
	return r
}

func (r *rig) step() {
	r.net.Deliver(r.cycle)
	r.cache.Tick(r.cycle)
	r.lsu.TickComplete(r.cycle)
	r.lsu.TickIssue(r.cycle)
	r.cycle++
}

func (r *rig) run(n int) {
	for i := 0; i < n; i++ {
		r.step()
	}
}

func ld(addr int64) isa.Instruction {
	return isa.Instruction{Op: isa.OpLoad, Dst: isa.R1, Base: isa.R0, Imm: addr}
}

func st(addr int64) isa.Instruction {
	return isa.Instruction{Op: isa.OpStore, Src: isa.R2, Base: isa.R0, Imm: addr}
}

func TestConventionalSCSerializesLoads(t *testing.T) {
	r := newRig(t, Config{Model: SC})
	r.lsu.Dispatch(1, ld(0x100), true, 0, true, 0)
	r.lsu.Dispatch(2, ld(0x200), true, 0, true, 0)
	r.run(1)
	// Only the first load may be in flight under conventional SC.
	if got := r.lsu.Stats.Counter("loads_issued").Value(); got != 1 {
		t.Fatalf("issued %d loads in cycle 0, want 1", got)
	}
	r.run(30) // first miss completes (latency 12 in the rig)
	if _, ok := r.cpu.loads[1]; !ok {
		t.Fatal("first load never completed")
	}
	r.run(30)
	if _, ok := r.cpu.loads[2]; !ok {
		t.Fatal("second load never completed")
	}
}

func TestSpeculativeLoadsPipeline(t *testing.T) {
	r := newRig(t, Config{Model: SC, Tech: Technique{SpecLoad: true}})
	r.lsu.Dispatch(1, ld(0x100), true, 0, true, 0)
	r.lsu.Dispatch(2, ld(0x200), true, 0, true, 0)
	r.run(2)
	if got := r.lsu.Stats.Counter("loads_issued").Value(); got != 2 {
		t.Fatalf("issued %d loads in 2 cycles, want 2 (speculative pipelining)", got)
	}
	r.run(30)
	if len(r.cpu.loads) != 2 {
		t.Fatalf("completions = %d, want 2", len(r.cpu.loads))
	}
	// Both entries retire from the speculative-load buffer once done.
	if rows := r.lsu.SpecBufferSnapshot(); len(rows) != 0 {
		t.Errorf("spec buffer not drained: %+v", rows)
	}
}

func TestStoreWaitsForHeadSignal(t *testing.T) {
	r := newRig(t, Config{Model: RC})
	r.lsu.Dispatch(1, st(0x100), true, 0, true, 5)
	r.run(3)
	if r.lsu.Stats.Counter("stores_issued").Value() != 0 {
		t.Fatal("store issued without the reorder-buffer head signal")
	}
	r.lsu.StoreAtHead(1)
	r.run(1)
	if r.lsu.Stats.Counter("stores_issued").Value() != 1 {
		t.Fatal("store did not issue after the head signal")
	}
	r.run(30)
	if !r.cpu.stores[1] {
		t.Fatal("store never completed")
	}
	if r.mem.ReadWord(0x100) == 5 {
		t.Log("note: value still in cache (write-back); memory holds stale data as expected")
	}
}

func TestStoreBufferForwarding(t *testing.T) {
	r := newRig(t, Config{Model: RC, Tech: Technique{SpecLoad: true}})
	r.lsu.Dispatch(1, st(0x100), true, 0, true, 42)
	r.lsu.Dispatch(2, ld(0x100), true, 0, true, 0)
	r.run(3)
	if v, ok := r.cpu.loads[2]; !ok || v != 42 {
		t.Fatalf("forwarded load = %d,%v, want 42 (store not yet issued)", v, ok)
	}
	if r.lsu.Stats.Counter("store_forwards").Value() != 1 {
		t.Error("forwarding not counted")
	}
}

func TestLoadStallsOnUnreadyStoreData(t *testing.T) {
	r := newRig(t, Config{Model: RC, Tech: Technique{SpecLoad: true}})
	// Store's data operand not ready yet.
	r.lsu.Dispatch(1, st(0x100), true, 0, false, 0)
	r.lsu.Dispatch(2, ld(0x100), true, 0, true, 0)
	r.run(3)
	if _, ok := r.cpu.loads[2]; ok {
		t.Fatal("load bypassed a same-address store with unknown data")
	}
	r.lsu.SetDataOperand(1, 99)
	r.run(3)
	if v, ok := r.cpu.loads[2]; !ok || v != 99 {
		t.Fatalf("load after data ready = %d,%v, want 99", v, ok)
	}
}

func TestPrefetchForDelayedStore(t *testing.T) {
	r := newRig(t, Config{Model: SC, Tech: Technique{Prefetch: true}})
	// A load miss delays the store behind it under SC; the store should be
	// prefetched exclusively meanwhile.
	r.lsu.Dispatch(1, ld(0x100), true, 0, true, 0)
	r.lsu.Dispatch(2, st(0x200), true, 0, true, 7)
	r.run(3)
	if r.lsu.Stats.Counter("prefetch_attempts").Value() == 0 {
		t.Fatal("delayed store was not prefetched")
	}
	if out, ex := r.cache.HasMSHR(0x200); !out || !ex {
		t.Fatalf("no exclusive fill outstanding for the prefetched store (out=%v ex=%v)", out, ex)
	}
}

func TestSpecLoadSquashOnInvalidation(t *testing.T) {
	r := newRig(t, Config{Model: SC, Tech: Technique{SpecLoad: true}})
	// Warm the line so the speculative load hits and completes quickly.
	r.lsu.Dispatch(1, ld(0x100), true, 0, true, 0)
	r.run(20)
	if _, ok := r.cpu.loads[1]; !ok {
		t.Fatal("warm load incomplete")
	}
	r.lsu.MarkRetired(1)

	// A long miss ahead of a fast hit: the hit completes speculatively.
	r.lsu.Dispatch(2, ld(0x300), true, 0, true, 0) // miss
	r.lsu.Dispatch(3, ld(0x100), true, 0, true, 0) // hit, speculative
	r.run(3)
	if _, ok := r.cpu.loads[3]; !ok {
		t.Fatal("speculative hit did not complete early")
	}
	if r.lsu.CanRetireLoad(3) {
		t.Fatal("speculative load must not be retirable while buffered behind an incomplete acquire-load")
	}
	// An invalidation for the speculated line arrives (simulated directly).
	r.lsu.CoherenceEvent(0x100, cache.EvInvalidate, r.cycle)
	if len(r.cpu.flushes) != 1 || r.cpu.flushes[0] != 3 {
		t.Fatalf("squash flush = %v, want [3]", r.cpu.flushes)
	}
	if r.lsu.Stats.Counter("spec_squashes").Value() != 1 {
		t.Error("squash not counted")
	}
}

func TestSpecLoadReissueWhenNotDone(t *testing.T) {
	r := newRig(t, Config{Model: SC, Tech: Technique{SpecLoad: true, ReissueOpt: true}})
	r.lsu.Dispatch(1, ld(0x300), true, 0, true, 0) // miss, in flight
	r.run(2)
	// Invalidation arrives before the load completes: with the
	// optimization only the load is reissued; no flush.
	r.lsu.CoherenceEvent(0x300, cache.EvInvalidate, r.cycle)
	if len(r.cpu.flushes) != 0 {
		t.Fatalf("reissue case must not flush: %v", r.cpu.flushes)
	}
	if r.lsu.Stats.Counter("spec_reissues").Value() != 1 {
		t.Error("reissue not counted")
	}
	r.run(40)
	if _, ok := r.cpu.loads[1]; !ok {
		t.Fatal("reissued load never completed")
	}
}

func TestSpecBufferFIFORetirement(t *testing.T) {
	r := newRig(t, Config{Model: SC, Tech: Technique{SpecLoad: true}})
	r.lsu.Dispatch(1, ld(0x300), true, 0, true, 0) // long miss
	r.lsu.Dispatch(2, ld(0x400), true, 0, true, 0) // long miss
	r.run(2)
	rows := r.lsu.SpecBufferSnapshot()
	if len(rows) != 2 {
		t.Fatalf("spec buffer rows = %d, want 2", len(rows))
	}
	if !rows[0].Acq || !rows[1].Acq {
		t.Error("under SC all loads must set acq")
	}
	r.run(30)
	if rows := r.lsu.SpecBufferSnapshot(); len(rows) != 0 {
		t.Errorf("spec buffer not drained after completion: %+v", rows)
	}
}

func TestStoreTagAssignmentAndNullify(t *testing.T) {
	r := newRig(t, Config{Model: SC, Tech: Technique{SpecLoad: true}})
	r.lsu.Dispatch(1, st(0x200), true, 0, true, 7) // incomplete store
	r.lsu.Dispatch(2, ld(0x100), true, 0, true, 0) // load behind it
	r.run(2)
	rows := r.lsu.SpecBufferSnapshot()
	if len(rows) != 1 || !rows[0].HasTag || rows[0].TagAddr != 0x200 {
		t.Fatalf("load's store tag wrong: %+v", rows)
	}
	// Let the store complete: tag must be nullified.
	r.lsu.StoreAtHead(1)
	r.run(40)
	for _, row := range r.lsu.SpecBufferSnapshot() {
		if row.HasTag {
			t.Errorf("tag not nullified after store completion: %+v", row)
		}
	}
}

func TestRMWSplitSpeculativeReadEx(t *testing.T) {
	r := newRig(t, Config{Model: SC, Tech: Technique{SpecLoad: true}})
	rmw := isa.Instruction{Op: isa.OpRMW, RMW: isa.RMWTestAndSet, Dst: isa.R1, Src: isa.R0, Base: isa.R0, Imm: 0x100}
	r.lsu.Dispatch(1, rmw, true, 0, true, 0)
	r.run(1)
	// The read-exclusive part issues immediately; the atomic waits for the
	// head signal.
	if out, ex := r.cache.HasMSHR(0x100); !out || !ex {
		t.Fatal("speculative read-exclusive not issued")
	}
	rows := r.lsu.SpecBufferSnapshot()
	if len(rows) != 1 || !rows[0].IsRMW || !rows[0].Acq || !rows[0].HasTag {
		t.Fatalf("RMW spec entry wrong: %+v", rows)
	}
	r.lsu.StoreAtHead(1)
	r.run(40)
	if v, ok := r.cpu.loads[1]; !ok || v != 0 {
		t.Fatalf("rmw old value = %d,%v, want 0", v, ok)
	}
	if !r.cpu.stores[1] {
		t.Fatal("atomic part never completed")
	}
	if !r.lsu.CanRetireLoad(1) {
		t.Fatal("completed RMW must be retirable")
	}
}

func TestFlushRemovesYoungerEntries(t *testing.T) {
	r := newRig(t, Config{Model: RC, Tech: Technique{SpecLoad: true}})
	r.lsu.Dispatch(1, ld(0x100), true, 0, true, 0)
	r.lsu.Dispatch(2, ld(0x200), true, 0, true, 0)
	r.lsu.Dispatch(3, st(0x300), true, 0, true, 1)
	r.run(2)
	r.lsu.Flush(2)
	if r.lsu.find(2) != nil || r.lsu.find(3) != nil {
		t.Fatal("flushed entries still live")
	}
	if r.lsu.find(1) == nil {
		t.Fatal("older entry lost by flush")
	}
	// The orphaned access's completion must be dropped silently.
	r.run(30)
	if _, ok := r.cpu.loads[2]; ok {
		t.Fatal("completion delivered for a flushed load")
	}
	if r.lsu.Stats.Counter("stale_completions").Value() == 0 {
		t.Error("stale completion not counted")
	}
}

func TestForwardedLoadImmuneToCoherence(t *testing.T) {
	r := newRig(t, Config{Model: SC, Tech: Technique{SpecLoad: true}})
	r.lsu.Dispatch(1, st(0x100), true, 0, true, 5)
	r.lsu.Dispatch(2, ld(0x100), true, 0, true, 0)
	r.run(3)
	if v := r.cpu.loads[2]; v != 5 {
		t.Fatalf("forward = %d", v)
	}
	// An invalidation for the line must not squash the forwarded load: its
	// value came from this processor's own store.
	r.lsu.CoherenceEvent(0x100, cache.EvInvalidate, r.cycle)
	if len(r.cpu.flushes) != 0 {
		t.Fatalf("forwarded load squashed: %v", r.cpu.flushes)
	}
}

// TestForwardedLoadSquashedAfterStorePerforms pins the limit of the
// forwarding exemption: it holds only while the source store sits in the
// store buffer. Once that store performs, a remote write can slide in
// between the store and the load's retirement, so an invalidation for the
// line must squash the forwarded load like any other completed speculated
// load. (Found by conform seed 288: a release/store/store/acquire program
// retired an acquire bound to its own already-performed release while the
// line held a newer remote value — a non-SC outcome under SC.)
func TestForwardedLoadSquashedAfterStorePerforms(t *testing.T) {
	r := newRig(t, Config{Model: SC, Tech: Technique{SpecLoad: true}})
	r.lsu.Dispatch(1, st(0x100), true, 0, true, 5)
	r.lsu.Dispatch(2, st(0x200), true, 0, true, 7)
	r.lsu.Dispatch(3, ld(0x100), true, 0, true, 0)
	r.run(3)
	if v := r.cpu.loads[3]; v != 5 {
		t.Fatalf("forward = %d, want 5", v)
	}
	// The source store performs; the second store never reaches the head,
	// keeping the forwarded load buffered and unretired.
	r.lsu.StoreAtHead(1)
	r.run(40)
	if !r.cpu.stores[1] {
		t.Fatal("source store never completed")
	}
	r.lsu.CoherenceEvent(0x100, cache.EvInvalidate, r.cycle)
	if len(r.cpu.flushes) != 1 || r.cpu.flushes[0] != 3 {
		t.Fatalf("squash flush = %v, want [3]", r.cpu.flushes)
	}
	if r.lsu.Stats.Counter("spec_squashes").Value() != 1 {
		t.Error("squash not counted")
	}
}

func TestAdveHillOwnershipUnblocks(t *testing.T) {
	r := newRig(t, Config{Model: SC, Tech: Technique{AdveHill: true}})
	e := r.lsu.Dispatch(1, st(0x100), true, 0, true, 5)
	r.lsu.Dispatch(2, ld(0x200), true, 0, true, 0)
	r.lsu.StoreAtHead(1)
	r.run(1)
	// Simulate early ownership (no remote sharers in this rig would give
	// ownership == completion; poke the flag directly to test the predicate).
	e.ownershipOK = true
	if r.lsu.predicateOK(r.lsu.find(2)) != true {
		t.Fatal("Adve-Hill: owned store must not block the following load")
	}
}

func TestRevalidationConfirmsFalseSharing(t *testing.T) {
	r := newRig(t, Config{Model: SC, Tech: Technique{SpecLoad: true, Revalidate: true}})
	// A long miss ahead keeps the window open; the second load hits and is
	// consumed speculatively.
	r.lsu.Dispatch(1, ld(0x300), true, 0, true, 0) // miss
	r.lsu.Dispatch(2, ld(0x100), true, 0, true, 0) // will miss then be re-run
	r.run(20)                                      // both complete; entries retire
	r.lsu.MarkRetired(1)
	r.lsu.MarkRetired(2)
	r.run(5)
	// Fresh pair: the hit is speculative behind a new miss.
	r.lsu.Dispatch(3, ld(0x400), true, 0, true, 0) // miss, holds the buffer
	r.lsu.Dispatch(4, ld(0x100), true, 0, true, 0) // hit, value 0 consumed
	r.run(3)
	if _, ok := r.cpu.loads[4]; !ok {
		t.Fatal("speculative hit did not complete")
	}
	// A false-sharing invalidation arrives: same line, value unchanged.
	r.lsu.CoherenceEvent(0x100, cache.EvInvalidate, r.cycle)
	if len(r.cpu.flushes) != 0 {
		t.Fatalf("revalidation policy must not flush on the event: %v", r.cpu.flushes)
	}
	r.run(40) // miss 3 completes; revalidation re-reads 0x100 (same value 0)
	if r.lsu.Stats.Counter("revalidations_ok").Value() != 1 {
		t.Errorf("revalidation not confirmed: %s", r.lsu.DebugState())
	}
	if len(r.cpu.flushes) != 0 {
		t.Errorf("confirmed revalidation must not flush: %v", r.cpu.flushes)
	}
	if rows := r.lsu.SpecBufferSnapshot(); len(rows) != 0 {
		t.Errorf("spec buffer not drained after confirmation: %+v", rows)
	}
}

// sink swallows messages addressed to the adversary writer node.
type sink struct{}

func (sink) HandleMessage(m *network.Message, now uint64) {}

func TestRevalidationFailureSquashes(t *testing.T) {
	r := newRig(t, Config{Model: SC, Tech: Technique{SpecLoad: true, Revalidate: true}})
	r.net.Attach(2, sink{}) // adversary node for directory-serialized writes
	// Warm 0x100 so the speculative read hits with value 0.
	r.lsu.Dispatch(1, ld(0x100), true, 0, true, 0)
	r.run(20)
	r.lsu.MarkRetired(1)
	r.lsu.Dispatch(2, ld(0x500), true, 0, true, 0) // long miss holds the window
	r.lsu.Dispatch(3, ld(0x100), true, 0, true, 0) // speculative hit, value 0
	// An external writer changes the value while the window is open: the
	// directory invalidates our copy, the LSU marks the entry suspect, and
	// the later repeat read returns the new value, so the revalidation must
	// fail and squash.
	r.net.Post(network.Message{
		Type: network.MsgUpdateReq, Src: 2, Dst: 1,
		Line: 0x100, Word: 0x100, Value: 77,
	}, r.cycle)
	r.run(3)
	if _, ok := r.cpu.loads[3]; !ok {
		t.Fatal("speculative hit did not complete")
	}
	r.run(60)
	if r.lsu.Stats.Counter("revalidations").Value() == 0 {
		t.Fatalf("revalidation never issued: %s", r.lsu.DebugState())
	}
	if r.lsu.Stats.Counter("revalidations_failed").Value() != 1 {
		t.Fatalf("revalidation should have failed: %s", r.lsu.DebugState())
	}
	if len(r.cpu.flushes) != 1 || r.cpu.flushes[0] != 3 {
		t.Fatalf("failed revalidation must flush from the load: %v", r.cpu.flushes)
	}
}

func swpf(addr int64) isa.Instruction {
	return isa.Instruction{Op: isa.OpPrefetchEx, Base: isa.R0, Imm: addr}
}

func TestSoftwarePrefetchFiresAndRetires(t *testing.T) {
	r := newRig(t, Config{Model: SC}) // no hardware techniques needed
	r.lsu.Dispatch(1, swpf(0x200), true, 0, true, 0)
	r.lsu.Dispatch(2, ld(0x100), true, 0, true, 0)
	r.run(2)
	if !r.lsu.PrefetchDone(1) {
		t.Fatal("software prefetch did not issue")
	}
	if out, ex := r.cache.HasMSHR(0x200); !out || !ex {
		t.Fatalf("no exclusive fill for the software prefetch (out=%v ex=%v)", out, ex)
	}
	// The prefetch is non-binding: it must not delay the load under SC.
	r.run(30)
	if _, ok := r.cpu.loads[2]; !ok {
		t.Fatal("load delayed behind a software prefetch")
	}
	if r.lsu.Stats.Counter("sw_prefetches").Value() != 1 {
		t.Error("software prefetch not counted")
	}
}

func TestSoftwarePrefetchInvisibleToPredicates(t *testing.T) {
	// An unissued software prefetch must never block a following access
	// under SC (it is non-binding and unordered).
	r := newRig(t, Config{Model: SC})
	// The prefetch's base register is not ready: it cannot even compute its
	// address, so it sits in the reservation station...
	r.lsu.Dispatch(1, isa.Instruction{Op: isa.OpPrefetch, Base: isa.R5, Imm: 0x200}, false, 0, true, 0)
	r.lsu.Dispatch(2, ld(0x100), true, 0, true, 0)
	r.run(3)
	// ...and because the address unit is FIFO the load waits for the
	// address, but once the base arrives everything drains.
	r.lsu.SetBaseOperand(1, 0)
	r.run(30)
	if _, ok := r.cpu.loads[2]; !ok {
		t.Fatal("load never completed after prefetch address resolved")
	}
}

func TestDetectorFlagsEarlyLoad(t *testing.T) {
	r := newRig(t, Config{Model: RC, Tech: Technique{DetectSC: true}})
	r.net.Attach(2, sink{})
	// Warm 0x100.
	r.lsu.Dispatch(1, ld(0x100), true, 0, true, 0)
	r.run(20)
	r.lsu.MarkRetired(1)
	// Under RC both loads pipeline; the second is "early" w.r.t. SC.
	r.lsu.Dispatch(2, ld(0x300), true, 0, true, 0) // miss
	r.lsu.Dispatch(3, ld(0x100), true, 0, true, 0) // hit, early
	// An external write invalidates the early load's line inside the window.
	r.net.Post(network.Message{
		Type: network.MsgUpdateReq, Src: 2, Dst: 1,
		Line: 0x100, Word: 0x100, Value: 9,
	}, r.cycle)
	r.run(40)
	if r.lsu.SCViolations() != 1 {
		t.Fatalf("detector found %d violations, want 1", r.lsu.SCViolations())
	}
	// No correction: nothing flushed.
	if len(r.cpu.flushes) != 0 {
		t.Fatalf("detector must not correct: %v", r.cpu.flushes)
	}
}

func TestDetectorIgnoresInOrderLoad(t *testing.T) {
	r := newRig(t, Config{Model: RC, Tech: Technique{DetectSC: true}})
	r.net.Attach(2, sink{})
	// A single load with nothing older is never early; an invalidation
	// during its flight must not count.
	r.lsu.Dispatch(1, ld(0x100), true, 0, true, 0)
	r.run(1)
	r.net.Post(network.Message{
		Type: network.MsgUpdateReq, Src: 2, Dst: 1,
		Line: 0x100, Word: 0x100, Value: 9,
	}, r.cycle)
	r.run(40)
	if r.lsu.SCViolations() != 0 {
		t.Fatalf("false positive: %d violations for an in-order load", r.lsu.SCViolations())
	}
}

// TestEntriesRecycled: retired, pruned entries go back to the pool, so a
// long stream of accesses reuses a handful of entries.
func TestEntriesRecycled(t *testing.T) {
	r := newRig(t, Config{Model: RC, Tech: Technique{SpecLoad: true}})
	seen := map[*Entry]bool{}
	for seq := uint64(1); seq <= 200; seq++ {
		e := r.lsu.Dispatch(seq, ld(int64(0x100+seq%4)), true, 0, true, 0)
		seen[e] = true
		r.run(12)
		r.lsu.MarkRetired(seq)
		r.run(2)
	}
	if len(r.lsu.entries) != 0 {
		t.Fatalf("%d entries still live", len(r.lsu.entries))
	}
	if len(seen) > 4 {
		t.Errorf("200 sequential loads used %d distinct entries; pruned entries are not reused", len(seen))
	}
}

// TestForwardingSourceNotRecycled: a pruned store that a live load
// forwarded from stays reachable through the load's link (it is exported
// with the load), so it must not be reused until the load is gone.
func TestForwardingSourceNotRecycled(t *testing.T) {
	r := newRig(t, Config{Model: RC})
	store := r.lsu.Dispatch(1, st(0x100), true, 0, true, 42)
	r.lsu.StoreAtHead(1)
	r.lsu.Dispatch(2, ld(0x100), true, 0, true, 0)
	r.run(2)
	if v, ok := r.cpu.loads[2]; !ok || v != 42 {
		t.Fatalf("load = %d,%v, want 42 forwarded from the store", v, ok)
	}
	r.lsu.MarkRetired(1)
	r.run(20) // the store performs and is pruned; the load is not retired
	if r.lsu.find(1) != nil {
		t.Fatal("store still live; the test needs it pruned")
	}
	if load := r.lsu.find(2); load == nil || load.fwdFrom != store || store.Seq != 1 {
		t.Fatal("pruned forwarding source was cleared or reused while the load links to it")
	}
	for seq := uint64(3); seq < 10; seq++ {
		if e := r.lsu.Dispatch(seq, ld(0x200), true, 0, true, 0); e == store {
			t.Fatal("Dispatch reused a store a live load still forwards from")
		}
	}
	st, err := r.lsu.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.MonitorOrphans) != 1 || st.MonitorOrphans[0].Seq != 1 {
		t.Errorf("export orphans = %+v, want the pruned store", st.MonitorOrphans)
	}
}
