package core

import (
	"fmt"

	"mcmsim/internal/cache"
	"mcmsim/internal/isa"
	"mcmsim/internal/memsys"
	"mcmsim/internal/stats"
)

// CPU is the interface the load/store unit uses to talk back to the
// out-of-order core (implemented by internal/cpu). All calls are
// synchronous within the current cycle.
type CPU interface {
	// LoadComplete delivers a load (or RMW) return value for the ROB entry.
	// Under the speculative-load technique this may happen long before the
	// entry is allowed to retire; dependent instructions consume the value
	// immediately (that is the speculation).
	LoadComplete(rob uint64, value int64, now uint64)
	// StoreComplete reports that a store has performed, for the SC
	// retirement policy (a store at the head of the reorder buffer is not
	// retired until it completes).
	StoreComplete(rob uint64, now uint64)
	// FlushFrom squashes the ROB entry rob and everything after it, exactly
	// like a branch misprediction: the instructions are re-fetched and
	// re-executed. The CPU must call LSU.Flush as part of handling this.
	FlushFrom(rob uint64, now uint64)
	// InvalidateLoadValue withdraws a previously delivered (speculated)
	// value: dependents must wait for a fresh LoadComplete. Used when an
	// RMW's speculated value is squashed after the atomic has issued but
	// before it completes (Appendix A): the re-executed consumers must see
	// the atomic's return value, not the stale speculation.
	InvalidateLoadValue(rob uint64)
}

// Config carries the consistency model, the enabled techniques and the
// memory-side modes of the load/store unit.
type Config struct {
	Model Model
	Tech  Technique
	// NST selects the Stenstrom comparator (paper §6): the cache is
	// bypassed and accesses are sequenced at the memory module, so the
	// processor issues them in program order without waiting for
	// completions. Stores still wait for the head of the reorder buffer
	// (wrong-path stores must never reach memory).
	NST bool
	// UncachedRMW lists word addresses that are never cached — typically
	// synchronization words whose read-modify-writes the hardware performs
	// at the memory module (Appendix A: "Some read-modify-write locations
	// may not be cached. The simplest way to handle such locations is to
	// delay the access until previous accesses that are required to
	// complete by the consistency model have completed. Thus, there is no
	// speculative load for non-cached read-modify-write accesses."). Every
	// access to such a word — the atomic, the releasing store, any read —
	// bypasses the cache and performs at the module. The list is
	// ascending, without duplicates (sim.Config.Resolve sorts it).
	UncachedRMW []uint64
}

// entryRole distinguishes cache-access completions for the same entry.
type entryRole uint8

const (
	roleDemand entryRole = iota // the access itself (load, store, atomic RMW)
	roleSpec                    // the speculative read-exclusive part of an RMW
	roleReval                   // a revalidation repeat-read (§4.1 policy)
)

// Entry is one memory access flowing through the load/store unit. Entries
// are created at dispatch in program order; Seq equals the ROB identifier,
// which increases monotonically. The LSU recycles an entry once nothing
// can reach it any more (see releaseEntry), so an *Entry is only valid
// while the access is in the unit.
type Entry struct {
	Seq   uint64
	Class AccessClass
	RMW   isa.RMWKind

	base      int64
	baseReady bool
	imm       int64
	Addr      uint64
	AddrReady bool
	data      int64
	dataReady bool

	inStoreBuf bool
	atHead     bool // reorder buffer signaled the store part may issue
	issued     bool // demand access handed to the cache
	issuedAt   uint64
	dispatchAt uint64
	Done       bool // access performed
	Value      int64

	specIssued bool // RMW: speculative read-exclusive issued
	specDone   bool // RMW: speculative read-exclusive completed
	specValue  int64

	prefetched  bool
	ownershipOK bool   // Adve-Hill: exclusive ownership acquired
	forwarded   bool   // load satisfied by store-buffer forwarding
	fwdFrom     *Entry // the buffered store the value came from

	// squashedAfterIssue marks an RMW whose speculative value was squashed
	// after the atomic was already issued: the atomic's return value must be
	// re-delivered (paper Appendix A).
	squashedAfterIssue bool

	retired bool // committed by the reorder buffer

	demandID uint64 // current cache access id (re-assigned on reissue)
	specID   uint64

	// Reachability bookkeeping for recycling (not serialized; RestoreState
	// rebuilds it): idRefs counts the live cache-access ids that name the
	// entry, and fwdSource records that some load forwarded its value from
	// this store, so a load's fwdFrom may still point here.
	idRefs    int
	fwdSource bool

	nextFree *Entry // free-list link while released
}

// IsWrite reports whether the entry writes memory.
func (e *Entry) IsWrite() bool { return e.Class.isWrite() }

// IsRead reports whether the entry binds a register from memory.
func (e *Entry) IsRead() bool { return e.Class.isRead() }

// specEntry is one row of the speculative-load buffer (Figure 4): load
// address, acq, done, store tag. done and the address live on the Entry.
type specEntry struct {
	e        *Entry
	acq      bool
	storeTag *Entry // nil when the load depends on no previous store
	isRMW    bool   // entry for the read-exclusive part of an RMW

	// Revalidation policy state (Technique.Revalidate, §4.1).
	suspect     bool // a coherence event matched; value must be re-checked
	revalIssued bool // the repeat access is in flight
	revalOK     bool // the repeat access confirmed the speculated value

	nextFree *specEntry // free-list link while released
}

func (s *specEntry) done() bool {
	if s.isRMW {
		return s.e.specDone
	}
	return s.e.Done
}

type idTarget struct {
	e    *Entry
	role entryRole
}

// LSU is the load/store functional unit of Figure 4: the load/store
// reservation station, the address unit, the store buffer and the
// speculative-load buffer, plus the prefetch engine of §3.
type LSU struct {
	Proc  int
	cfg   Config
	cache *cache.Cache
	cpu   CPU
	geom  memsys.Geometry

	entries  []*Entry // all live entries in program order
	rs       []*Entry // awaiting effective-address computation (FIFO)
	loadQ    []*Entry // reads with addresses, awaiting issue (FIFO)
	storeBuf []*Entry // writes/RMWs with addresses (FIFO)
	swpfQ    []*Entry // software prefetches with addresses (FIFO)
	spec     []*specEntry
	monitor  []*specEntry // SC-violation detector entries (Technique.DetectSC)

	ids        map[uint64]idTarget
	nextID     uint64
	revalBySeq map[uint64]*specEntry // pending revalidations by entry Seq

	// Free lists of released entries and buffer rows, reused by Dispatch
	// and the buffers so the instruction flow does not allocate once they
	// have grown.
	freeEntries *Entry
	freeRows    *specEntry

	// forwards holds store-buffer-forwarded loads completing later;
	// fireScratch is TickComplete's reusable due-list.
	forwards    []forwardCompletion
	fireScratch []forwardCompletion

	observe func(ObsEvent)

	Stats *stats.Set
	// latHist caches the per-class completion-latency histograms so the
	// completion path does not rebuild "latency_<class>" keys per access.
	latHist [numAccessClasses]*stats.Histogram
	// Counters bumped per access, resolved once.
	dispatched, loadsIssued, storesIssued, storeForwards     stats.CounterRef
	specEntries, specRetired, prefetchAttempts, swPrefetches stats.CounterRef
}

// numAccessClasses sizes per-class lookup arrays.
const numAccessClasses = int(ClassPrefetchEx) + 1

// latencyHist returns the completion-latency histogram for a class,
// creating it on first use (so StatsReport still lists only classes that
// actually completed).
func (u *LSU) latencyHist(c AccessClass) *stats.Histogram {
	h := u.latHist[c]
	if h == nil {
		h = u.Stats.Histogram("latency_" + c.String())
		u.latHist[c] = h
	}
	return h
}

type forwardCompletion struct {
	at    uint64
	id    uint64
	value int64
}

// NewLSU creates a load/store unit bound to a cache. Call SetCPU before the
// first cycle.
func NewLSU(proc int, cfg Config, c *cache.Cache, geom memsys.Geometry) *LSU {
	u := &LSU{
		Proc:       proc,
		cfg:        cfg,
		cache:      c,
		geom:       geom,
		ids:        make(map[uint64]idTarget),
		revalBySeq: make(map[uint64]*specEntry),
		Stats:      stats.NewSet(fmt.Sprintf("lsu%d", proc)),
	}
	u.dispatched = u.Stats.Ref("dispatched")
	u.loadsIssued = u.Stats.Ref("loads_issued")
	u.storesIssued = u.Stats.Ref("stores_issued")
	u.storeForwards = u.Stats.Ref("store_forwards")
	u.specEntries = u.Stats.Ref("spec_entries")
	u.specRetired = u.Stats.Ref("spec_retired")
	u.prefetchAttempts = u.Stats.Ref("prefetch_attempts")
	u.swPrefetches = u.Stats.Ref("sw_prefetches")
	return u
}

// SetCPU wires the back-pointer to the out-of-order core.
func (u *LSU) SetCPU(cpu CPU) { u.cpu = cpu }

// Model returns the configured consistency model.
func (u *LSU) Model() Model { return u.cfg.Model }

// Tech returns the configured techniques.
func (u *LSU) Tech() Technique { return u.cfg.Tech }

// classOf maps an instruction to its access class.
func classOf(in isa.Instruction) AccessClass {
	switch in.Op {
	case isa.OpLoad:
		return ClassLoad
	case isa.OpStore:
		return ClassStore
	case isa.OpAcquire:
		return ClassAcquire
	case isa.OpRelease:
		return ClassRelease
	case isa.OpRMW:
		return ClassRMW
	case isa.OpPrefetch:
		return ClassPrefetch
	case isa.OpPrefetchEx:
		return ClassPrefetchEx
	default:
		panic("core: not a memory instruction")
	}
}

// Dispatch enters a decoded memory instruction into the load/store
// reservation station. rob is the reorder-buffer identifier (monotonic).
// Operands already available are passed via the ready flags; the CPU
// forwards late operands through SetBaseOperand / SetDataOperand.
func (u *LSU) Dispatch(rob uint64, in isa.Instruction, baseReady bool, base int64, dataReady bool, data int64) *Entry {
	e := u.newEntry()
	*e = Entry{
		Seq:       rob,
		Class:     classOf(in),
		RMW:       in.RMW,
		imm:       in.Imm,
		base:      base,
		baseReady: baseReady,
		data:      data,
		dataReady: dataReady,
	}
	if !e.IsWrite() {
		e.dataReady = true
	}
	u.entries = append(u.entries, e)
	u.rs = append(u.rs, e)
	u.dispatched.Inc()
	return e
}

// SetBaseOperand delivers the base-address register value for entry rob.
func (u *LSU) SetBaseOperand(rob uint64, v int64) {
	if e := u.find(rob); e != nil {
		e.base = v
		e.baseReady = true
	}
}

// SetDataOperand delivers the store-data register value for entry rob.
func (u *LSU) SetDataOperand(rob uint64, v int64) {
	if e := u.find(rob); e != nil {
		e.data = v
		e.dataReady = true
	}
}

// StoreAtHead is the reorder buffer's signal that the store (or RMW) at rob
// has reached the head of the buffer and may issue to the memory system
// (the precise-interrupt gate of §4.2).
func (u *LSU) StoreAtHead(rob uint64) {
	if e := u.find(rob); e != nil {
		e.atHead = true
	}
}

// StoreAddrReady reports whether a store's effective address has been
// computed; the reorder buffer retires stores under WC/RC/PC as soon as
// this holds (and the store has reached the head).
func (u *LSU) StoreAddrReady(rob uint64) bool {
	e := u.find(rob)
	return e != nil && e.AddrReady
}

// StoreDone reports whether the store has performed (the SC retirement
// policy keeps the store at the head of the reorder buffer until then).
// Under the Adve-Hill comparator a store is retirable as soon as exclusive
// ownership is acquired: the scheme stalls only until ownership, relying on
// visibility control for the rest (paper §6).
func (u *LSU) StoreDone(rob uint64) bool {
	e := u.find(rob)
	if e == nil {
		return false
	}
	if e.Done {
		return true
	}
	return u.cfg.Tech.AdveHill && e.ownershipOK
}

// PrefetchDone reports whether a software prefetch has been sent to the
// memory system (it retires immediately after; prefetches are non-binding).
func (u *LSU) PrefetchDone(rob uint64) bool {
	e := u.find(rob)
	return e != nil && e.Done
}

// CanRetireLoad reports whether a load (or RMW) may retire from the reorder
// buffer: its value must have arrived and it must no longer be in the
// speculative-load buffer (Figure 5, event 8: "load D is no longer
// considered a speculative load and is retired from both the reorder and
// the speculative-load buffers").
func (u *LSU) CanRetireLoad(rob uint64) bool {
	e := u.find(rob)
	if e == nil {
		return false
	}
	if !e.Done {
		return false
	}
	for _, s := range u.spec {
		if s.e == e {
			return false
		}
	}
	return true
}

// MarkRetired records that the reorder buffer committed the entry; only
// retired, completed entries are pruned from the live window.
func (u *LSU) MarkRetired(rob uint64) {
	if e := u.find(rob); e != nil {
		e.retired = true
	}
}

// find locates a live entry by ROB id. Linear scan: the live window is
// small (bounded by the reorder buffer).
func (u *LSU) find(rob uint64) *Entry {
	for _, e := range u.entries {
		if e.Seq == rob {
			return e
		}
	}
	return nil
}

// Drained reports whether the LSU has no live incomplete entries.
func (u *LSU) Drained() bool {
	for _, e := range u.entries {
		if !e.Done {
			return false
		}
	}
	return len(u.forwards) == 0
}

// Flush removes every entry with Seq >= rob from all LSU structures: the
// reservation station, the load queue, the store buffer and the
// speculative-load buffer. In-flight cache accesses for flushed entries are
// orphaned; their completions are dropped by the id map (the fill still
// installs in the cache, acting as a prefetch). Issued stores are never
// flushed: a store issues only after everything older has retired, so no
// older instruction remains to cause a flush. Flushed entries are recycled
// unless a pending revalidation's id still names one.
func (u *LSU) Flush(rob uint64) {
	cut := len(u.entries)
	for i, e := range u.entries {
		if e.Seq >= rob {
			cut = i
			break
		}
	}
	flushed := u.entries[cut:]
	for _, e := range flushed {
		if e.issued && e.IsWrite() && !e.Done {
			panic(fmt.Sprintf("core: flushing issued store seq=%d", e.Seq))
		}
		u.dropID(e.demandID)
		u.dropID(e.specID)
	}
	keep := func(es []*Entry) []*Entry {
		out := es[:0]
		for _, e := range es {
			if e.Seq < rob {
				out = append(out, e)
			}
		}
		return out
	}
	u.rs = keep(u.rs)
	u.loadQ = keep(u.loadQ)
	u.storeBuf = keep(u.storeBuf)
	u.swpfQ = keep(u.swpfQ)
	sp := u.spec[:0]
	for _, s := range u.spec {
		if s.e.Seq < rob {
			sp = append(sp, s)
		} else {
			u.releaseRow(s)
		}
	}
	u.spec = sp
	u.flushMonitor(rob)
	for seq := range u.revalBySeq {
		if seq >= rob {
			delete(u.revalBySeq, seq)
		}
	}
	fw := u.forwards[:0]
	for _, f := range u.forwards {
		if _, live := u.ids[f.id]; live {
			fw = append(fw, f)
		}
	}
	u.forwards = fw
	for _, e := range flushed {
		if e.idRefs == 0 {
			u.releaseEntry(e)
		}
	}
	u.entries = u.entries[:cut]
}

// newEntry takes an entry from the free list, allocating only while the
// unit's window grows past its largest size so far.
func (u *LSU) newEntry() *Entry {
	e := u.freeEntries
	if e == nil {
		return new(Entry)
	}
	u.freeEntries = e.nextFree
	return e
}

// releaseEntry clears an entry nothing can reach any more and puts it on
// the free list Dispatch draws from. The clearing makes a stale reference
// (a bug) read a dead entry instead of another access's state.
func (u *LSU) releaseEntry(e *Entry) {
	*e = Entry{nextFree: u.freeEntries}
	u.freeEntries = e
}

// newRow takes a speculative-load-buffer or monitor row from the free list.
func (u *LSU) newRow(s specEntry) *specEntry {
	r := u.freeRows
	if r == nil {
		r = new(specEntry)
	} else {
		u.freeRows = r.nextFree
	}
	*r = s
	return r
}

// releaseRow puts a row that left its buffer on the free list. A row is
// reachable only from its buffer and, while a revalidation is pending,
// from revalBySeq, which never outlives the row's place in the buffer.
func (u *LSU) releaseRow(s *specEntry) {
	*s = specEntry{nextFree: u.freeRows}
	u.freeRows = s
}

// dropID forgets a cache-access id, if it is still live.
func (u *LSU) dropID(id uint64) {
	if t, ok := u.ids[id]; ok {
		t.e.idRefs--
		delete(u.ids, id)
	}
}

// newID allocates a cache access id bound to (entry, role).
func (u *LSU) newID(e *Entry, role entryRole) uint64 {
	u.nextID++
	id := u.nextID
	u.ids[id] = idTarget{e: e, role: role}
	e.idRefs++
	if role == roleSpec {
		e.specID = id
	} else {
		e.demandID = id
	}
	return id
}

// AccessComplete implements cache.Client: a cache access performed.
func (u *LSU) AccessComplete(id uint64, value int64, now uint64) {
	t, ok := u.ids[id]
	if !ok {
		// Stale completion for a flushed or reissued access: drop. The fill
		// it performed stays in the cache, so no work is wasted.
		u.Stats.Counter("stale_completions").Inc()
		return
	}
	delete(u.ids, id)
	e := t.e
	e.idRefs--
	switch t.role {
	case roleReval:
		u.completeRevalidation(e, value, now)
		return
	case roleSpec:
		e.specDone = true
		e.specValue = value
		e.Value = value
		u.cpu.LoadComplete(e.Seq, value, now)
		u.emit(ObsLoadDone, e, value, now)
	case roleDemand:
		e.Done = true
		u.latencyHist(e.Class).Observe(int64(now - e.issuedAt))
		switch {
		case e.Class == ClassRMW:
			if e.specIssued {
				// The register value was speculated from the read-exclusive
				// part. If no coherence event squashed it, the atomic's
				// return value must agree; if a squash already discarded the
				// consumers, deliver the authoritative value now.
				if e.squashedAfterIssue {
					e.Value = value
					u.cpu.LoadComplete(e.Seq, value, now)
				} else if e.specDone && e.specValue != value {
					panic(fmt.Sprintf("core: RMW speculation mismatch without coherence event (spec=%d atomic=%d)", e.specValue, value))
				}
			} else {
				e.Value = value
				u.cpu.LoadComplete(e.Seq, value, now)
			}
			u.storeCompleted(e, now)
			u.cpu.StoreComplete(e.Seq, now)
			u.emit(ObsStoreDone, e, value, now)
		case e.IsRead():
			e.Value = value
			u.cpu.LoadComplete(e.Seq, value, now)
			u.emit(ObsLoadDone, e, value, now)
		default: // store, release
			u.storeCompleted(e, now)
			u.cpu.StoreComplete(e.Seq, now)
			u.emit(ObsStoreDone, e, value, now)
		}
	}
	u.retireSpecEntries(now)
}

// AccessOwnership implements the optional ownership listener used by the
// Adve-Hill comparator: the cache acquired exclusive ownership for a write
// whose invalidations are still pending.
func (u *LSU) AccessOwnership(id uint64, now uint64) {
	if t, ok := u.ids[id]; ok {
		t.e.ownershipOK = true
		u.Stats.Counter("ownership_early").Inc()
	}
}

// storeCompleted nullifies speculative-load-buffer store tags naming the
// completed store (paper §4.2: "When a store completes, its corresponding
// tag in the speculative-load buffer is nullified if present"). Loads that
// forwarded their value from this store also lose their coherence-event
// exemption here: while the store was buffered the forwarded value was
// guaranteed by the store's own future perform, but from now on a remote
// write to the line can make the value stale before the load retires, so
// the load must match coherence traffic like any other speculated load.
func (u *LSU) storeCompleted(e *Entry, now uint64) {
	for _, s := range u.spec {
		if s.storeTag == e {
			s.storeTag = nil
		}
		if s.e.fwdFrom == e {
			s.e.forwarded = false
			s.e.fwdFrom = nil
		}
	}
	for _, s := range u.monitor {
		if s.storeTag == e {
			s.storeTag = nil
		}
		if s.e.fwdFrom == e {
			s.e.forwarded = false
			s.e.fwdFrom = nil
		}
	}
}

// retireSpecEntries pops satisfied entries from the head of the
// speculative-load buffer: the store tag must be null and, if the acq field
// is set, the load must have completed (§4.2).
func (u *LSU) retireSpecEntries(now uint64) {
	n := 0
	for _, s := range u.spec {
		if s.storeTag != nil {
			break
		}
		if s.acq && !s.done() {
			break
		}
		if s.isRMW && !s.e.Done {
			// The RMW's speculative entry is retired when the atomic
			// completes (Appendix A), which also nullifies its store tag.
			break
		}
		if s.suspect && !s.revalOK {
			// Revalidation policy: the entry holds its place until the
			// repeat access confirms the speculated value.
			break
		}
		n++
	}
	if n > 0 {
		for _, s := range u.spec[:n] {
			u.releaseRow(s)
		}
		u.spec = u.spec[:copy(u.spec, u.spec[n:])]
		u.specRetired.Add(uint64(n))
	}
	if u.cfg.Tech.DetectSC {
		u.retireMonitorEntries()
	}
}

// CoherenceEvent implements cache.Client: an invalidation, update or
// replacement touched a line. This is the paper's detection mechanism: the
// speculative-load buffer associatively matches the line address; the match
// closest to the head is handled first. A match against a completed load
// squashes the load and everything after it (the branch-misprediction
// machinery); a match against a pending load needs only a reissue when the
// optimization is enabled (§4.2).
func (u *LSU) CoherenceEvent(line uint64, kind cache.EventKind, now uint64) {
	if u.cfg.Tech.DetectSC {
		u.monitorCoherenceEvent(line)
	}
	for i := 0; i < len(u.spec); i++ {
		s := u.spec[i]
		if u.geom.LineOf(s.e.Addr) != line {
			continue
		}
		if s.e.forwarded {
			// Value came from a store still sitting in our own store
			// buffer: the store's future perform guarantees the value, so
			// coherence traffic cannot invalidate it. The exemption ends
			// when the source store completes (storeCompleted).
			continue
		}
		u.Stats.Counter("spec_matches").Inc()
		if s.isRMW && s.e.issued {
			// Appendix A: match after the atomic issued — discard only the
			// computation following the RMW; the atomic's own return value
			// is authoritative. If the atomic is still in flight, withdraw
			// the speculated value so re-executed consumers wait for the
			// atomic's result instead of re-reading the stale speculation.
			u.Stats.Counter("rmw_squash_after_issue").Inc()
			u.emit(ObsRMWLateSquash, s.e, 0, now)
			if !s.e.Done {
				s.e.squashedAfterIssue = true
				u.cpu.InvalidateLoadValue(s.e.Seq)
			}
			u.cpu.FlushFrom(s.e.Seq+1, now)
			return
		}
		if !s.done() && !s.e.issued && !s.e.specIssued {
			// Not yet issued: nothing speculated, nothing to do.
			continue
		}
		if !s.done() && u.cfg.Tech.ReissueOpt && !s.isRMW {
			// Second case of §4.2: the coherence transaction arrived before
			// the speculative load completed; the instructions after it
			// have not used a wrong value, so only the load is reissued.
			u.emit(ObsSquashReissue, s.e, 0, now)
			u.reissue(s.e)
			u.Stats.Counter("spec_reissues").Inc()
			continue
		}
		if s.done() && u.cfg.Tech.Revalidate && !s.isRMW {
			// §4.1's alternative policy: defer judgement; repeat the access
			// once the model would have allowed it and compare values.
			u.markSuspect(s)
			continue
		}
		// First case of §4.2: the value may have been consumed. Treat the
		// load as mispredicted: discard it and everything after it.
		u.Stats.Counter("spec_squashes").Inc()
		u.emit(ObsSquashFlush, s.e, 0, now)
		u.cpu.FlushFrom(s.e.Seq, now)
		return
	}
}

// reissue re-executes just the load: the old in-flight access is orphaned
// (its return value is dropped by the id map — the paper's tagging of
// initial versus repeated return values) and the entry goes back to the
// issue stage.
func (u *LSU) reissue(e *Entry) {
	u.dropID(e.demandID)
	e.issued = false
	e.Done = false
	e.forwarded = false
	e.fwdFrom = nil
	// Entry is still in loadQ order? It left loadQ at issue; re-queue at
	// the correct program-order position.
	pos := len(u.loadQ)
	for i, q := range u.loadQ {
		if q.Seq > e.Seq {
			pos = i
			break
		}
	}
	u.loadQ = append(u.loadQ, nil)
	copy(u.loadQ[pos+1:], u.loadQ[pos:])
	u.loadQ[pos] = e
}

// PendingWork reports whether the LSU still has queued or in-flight work.
func (u *LSU) PendingWork() bool {
	return len(u.rs) > 0 || len(u.loadQ) > 0 || len(u.storeBuf) > 0 ||
		len(u.swpfQ) > 0 || len(u.forwards) > 0 || !u.Drained()
}

// Prune discards completed entries from the front of the live-entry list
// once they can no longer influence predicates or tags. An entry is
// prunable when it is done and no speculative-load-buffer entry references
// it as a store tag. A pruned entry is recycled unless something still
// reaches it (see reachable).
func (u *LSU) Prune() {
	// Stores retire from the store buffer when they complete (Figure 5).
	sb := u.storeBuf[:0]
	for _, e := range u.storeBuf {
		if !e.Done {
			sb = append(sb, e)
		}
	}
	u.storeBuf = sb
	n := 0
	for _, e := range u.entries {
		if !e.Done || !e.retired || u.specReferenced(e) {
			break
		}
		n++
	}
	if n == 0 {
		return
	}
	// Youngest first: a forwarding link points from a load to an older
	// store, so releasing a pruned load first unpins the store it names.
	for i := n - 1; i >= 0; i-- {
		if e := u.entries[i]; !u.reachable(e, u.entries[i+1:]) {
			u.releaseEntry(e)
		}
	}
	u.entries = u.entries[:copy(u.entries, u.entries[n:])]
}

// reachable reports whether a pruned entry is still named by anything
// other than the live-entry list: a cache-access id, the load queue (an
// RMW whose atomic issued first leaves its stale row there), an SC-monitor
// row (the monitor keeps pruned entries as orphans), or the forwarding
// link of a younger entry — later, i.e. the live entries and the pruned
// ones kept — or of a monitor orphan. Prune's own check excludes the
// speculative-load buffer, and the store buffer holds no completed entry.
func (u *LSU) reachable(e *Entry, later []*Entry) bool {
	if e.idRefs > 0 {
		return true
	}
	if e.IsRead() {
		for _, q := range u.loadQ {
			if q == e {
				return true
			}
		}
	}
	for _, s := range u.monitor {
		if s.e == e || s.storeTag == e || (e.fwdSource && s.e.fwdFrom == e) {
			return true
		}
	}
	if e.fwdSource {
		for _, o := range later {
			if o.fwdFrom == e {
				return true
			}
		}
	}
	return false
}

// specReferenced reports whether a speculative-load-buffer row still names
// e (as its load or as its store tag). The direct scan replaces a per-cycle
// map build: the buffer is small and Prune runs every cycle.
func (u *LSU) specReferenced(e *Entry) bool {
	for _, s := range u.spec {
		if s.e == e || s.storeTag == e {
			return true
		}
	}
	return false
}
