package core

import (
	"slices"

	"mcmsim/internal/cache"
	"mcmsim/internal/coherence"
)

// uncached reports whether addr is one of Config.UncachedRMW's words.
func (u *LSU) uncached(addr uint64) bool {
	_, ok := slices.BinarySearch(u.cfg.UncachedRMW, addr)
	return ok
}

// predicateOK evaluates the conventional delay arcs of Figure 1 for entry
// e: it reports whether every older incomplete access permits e to issue
// under the configured model. The Adve-Hill comparator treats a store whose
// ownership has been acquired as performed for ordering purposes.
func (u *LSU) predicateOK(e *Entry) bool {
	adveHill := u.cfg.Tech.AdveHill && u.cfg.Model == SC
	for _, o := range u.entries {
		if o.Seq >= e.Seq {
			break
		}
		if o.Done || o.Class.isSWPrefetch() {
			// Software prefetches are non-binding and never order anything.
			continue
		}
		if adveHill && o.IsWrite() && !o.IsRead() && o.ownershipOK {
			// Adve-Hill: a store whose ownership has been gained no longer
			// stalls later accesses; the new value is held back from other
			// processors instead.
			continue
		}
		if blocksIssue(u.cfg.Model, o.Class, e.Class) {
			return false
		}
	}
	return true
}

// computeAddresses runs the address unit: effective addresses are computed
// in FIFO order from the load/store reservation station, as many per cycle
// as have their base operand (the paper's abstract machine); an entry whose
// base operand is unavailable stalls the unit (§4.2: "The retiring of
// instructions is stalled until the effective address for the instruction
// at the head can be computed").
func (u *LSU) computeAddresses(now uint64) {
	for len(u.rs) > 0 {
		e := u.rs[0]
		if !e.baseReady {
			return
		}
		e.Addr = uint64(e.base + e.imm)
		e.AddrReady = true
		u.rs = u.rs[:copy(u.rs, u.rs[1:])]
		switch e.Class {
		case ClassPrefetch, ClassPrefetchEx:
			u.swpfQ = append(u.swpfQ, e)
		case ClassLoad, ClassAcquire:
			u.loadQ = append(u.loadQ, e)
		case ClassStore, ClassRelease:
			e.inStoreBuf = true
			u.storeBuf = append(u.storeBuf, e)
		case ClassRMW:
			// Appendix A: the reservation station splits a read-modify-write
			// into a speculative read-exclusive load and the actual atomic.
			// The atomic is placed in the store buffer; with the speculative
			// technique the read-exclusive part is issued via the load path.
			// Under the update protocol atomics serialize at the directory,
			// and non-cached read-modify-write locations have no speculative
			// part at all (Appendix A).
			e.inStoreBuf = true
			u.storeBuf = append(u.storeBuf, e)
			if u.cfg.Tech.SpecLoad && u.cache.Proto() != coherence.ProtoUpdate && !u.uncached(e.Addr) {
				u.loadQ = append(u.loadQ, e)
			}
		}
	}
}

// olderStoresIssued reports whether every older write-class entry has been
// sent to the memory system (NST program-order issue rule).
func (u *LSU) olderStoresIssued(e *Entry) bool {
	for _, o := range u.entries {
		if o.Seq >= e.Seq {
			break
		}
		if o.IsWrite() && !o.issued {
			return false
		}
	}
	return true
}

// olderStoreConflict checks the store buffer for an older store to the same
// word address. It returns the youngest such store and whether the load
// must stall (an older RMW or a store whose data is not yet available).
func (u *LSU) olderStoreConflict(e *Entry) (fwd *Entry, stall bool) {
	for _, s := range u.storeBuf {
		if s.Seq >= e.Seq || s.Done {
			continue
		}
		if !s.AddrReady || s.Addr != e.Addr {
			continue
		}
		if s.Class == ClassRMW {
			// Atomics do not forward; wait until the RMW performs.
			return nil, true
		}
		if !s.dataReady {
			return nil, true
		}
		fwd = s // keep scanning: youngest older store wins
	}
	return fwd, false
}

// TickIssue is the LSU's per-cycle issue stage: run the address unit, issue
// at most one port-consuming demand access (merges with in-flight prefetches
// are free, per §3.2), then spend a free port cycle on a prefetch.
func (u *LSU) TickIssue(now uint64) {
	u.computeAddresses(now)
	portFree := true

	for {
		ld := u.nextLoadCandidate()
		st := u.nextStoreCandidate()
		var e *Entry
		var isStorePath bool
		switch {
		case ld == nil && st == nil:
			e = nil
		case ld == nil:
			e, isStorePath = st, true
		case st == nil:
			e = ld
		case ld.Seq < st.Seq:
			e = ld
		default:
			e, isStorePath = st, true
		}
		if e == nil {
			break
		}
		if !portFree {
			// Only a merge with an in-flight fill is free; anything else
			// must wait for the next cycle.
			if out, _ := u.cache.HasMSHR(e.Addr); !out {
				break
			}
		}
		usedPort, blocked := u.issueOne(e, isStorePath, now)
		if blocked {
			break
		}
		if usedPort {
			portFree = false
		}
	}

	if portFree && u.cfg.Tech.Revalidate {
		if s := u.revalidationCandidate(); s != nil {
			portFree = !u.issueRevalidation(s, now)
		}
	}
	if portFree {
		portFree = !u.swPrefetchTick(now)
	}
	if portFree && u.cfg.Tech.Prefetch {
		u.prefetchTick(now)
	}
	u.retireSpecEntries(now)
	u.Prune()
}

// swPrefetchTick issues the oldest pending software prefetch instruction
// (paper §6). Software prefetches are available regardless of the hardware
// technique flags — they are ordinary instructions. Returns whether the
// port was used.
func (u *LSU) swPrefetchTick(now uint64) bool {
	for len(u.swpfQ) > 0 {
		e := u.swpfQ[0]
		kind := cache.ReqPrefetch
		if e.Class == ClassPrefetchEx {
			kind = cache.ReqPrefetchEx
		}
		res := u.cache.Access(cache.Request{Kind: kind, Addr: e.Addr}, now)
		if res == cache.Blocked {
			return false
		}
		// Fire and forget: the prefetch retires immediately whether it
		// started a fill or was discarded against a resident line.
		e.Done = true
		u.swpfQ = u.swpfQ[:copy(u.swpfQ, u.swpfQ[1:])]
		u.emit(ObsPrefetch, e, 0, now)
		u.swPrefetches.Inc()
		return true // probe or fill, the port was used either way
	}
	return false
}

// nextLoadCandidate returns the load-queue head if it is allowed to issue,
// dropping already-issued entries off the head as it goes.
func (u *LSU) nextLoadCandidate() *Entry {
	for len(u.loadQ) > 0 {
		e := u.loadQ[0]
		if e.issued {
			// Already issued: for an RMW the atomic issued before its
			// speculative read-exclusive part became useful; either way the
			// head is stale, drop it.
			u.loadQ = u.loadQ[:copy(u.loadQ, u.loadQ[1:])]
			continue
		}
		return u.loadEligible(e)
	}
	return nil
}

// peekLoadCandidate is nextLoadCandidate without the stale-head cleanup:
// the read-only variant NextWake uses so the quiescence probe cannot
// perturb queue state.
func (u *LSU) peekLoadCandidate() *Entry {
	for _, e := range u.loadQ {
		if e.issued {
			continue
		}
		return u.loadEligible(e)
	}
	return nil
}

// loadEligible applies the issue rules to the first live load-queue entry.
func (u *LSU) loadEligible(e *Entry) *Entry {
	// Conventional enforcement delays the load per the model's arcs;
	// the speculative technique issues as soon as the address is known.
	// Under NST, ordering is the memory module's job: the load needs
	// only program order of issue, i.e. all older stores sent.
	// Non-cached locations never speculate (Appendix A): they wait for
	// everything older under every model.
	if u.cfg.NST {
		if !u.olderStoresIssued(e) {
			return nil
		}
	} else if u.uncached(e.Addr) {
		if !u.allOlderDone(e) {
			return nil
		}
	} else if !u.cfg.Tech.SpecLoad && !u.predicateOK(e) {
		return nil
	}
	fwd, stall := u.olderStoreConflict(e)
	if stall || (fwd != nil && e.Class == ClassRMW) {
		// The RMW's read-exclusive part must not bypass an older
		// buffered store to the same address.
		return nil
	}
	return e
}

// nextStoreCandidate returns the first unissued store-buffer entry if it is
// allowed to issue: it must have been signaled by the reorder buffer
// (reached the head: the precise-interrupt gate), have address and data,
// and satisfy the model's delay arcs. Issue is FIFO: an ineligible store
// blocks younger stores.
func (u *LSU) nextStoreCandidate() *Entry {
	for _, e := range u.storeBuf {
		if e.issued {
			if e.Done {
				continue
			}
			// Outstanding store: under every model stores issue from the
			// buffer in FIFO order, but whether the next may overlap is the
			// predicate's decision, so keep scanning.
			continue
		}
		if !e.atHead || !e.AddrReady || !e.dataReady {
			return nil
		}
		if u.cfg.NST {
			return e // memory-side ordering; no processor-side delays
		}
		if u.uncached(e.Addr) {
			// Appendix A: an access to a non-cached location is delayed
			// until everything older has performed, under every model.
			if !u.allOlderDone(e) {
				return nil
			}
			return e
		}
		if !u.predicateOK(e) {
			return nil
		}
		return e
	}
	return nil
}

// issueOne sends one access to the memory system. Returns whether the cache
// port was consumed and whether the issuer must stop for this cycle.
func (u *LSU) issueOne(e *Entry, storePath bool, now uint64) (usedPort, blocked bool) {
	if storePath {
		return u.issueStore(e, now)
	}
	return u.issueLoad(e, now)
}

func (u *LSU) issueLoad(e *Entry, now uint64) (usedPort, blocked bool) {
	// Store-buffer forwarding: dependence checking on the store buffer
	// (§4.2) lets a load take its value from an older buffered store.
	if fwd, _ := u.olderStoreConflict(e); fwd != nil && e.Class != ClassRMW {
		id := u.newID(e, roleDemand)
		e.issued = true
		e.forwarded = true
		e.fwdFrom = fwd
		fwd.fwdSource = true
		// A forwarded value arrives a cycle later, like a cache hit.
		u.forwards = append(u.forwards, forwardCompletion{at: now + 1, id: id, value: fwd.data})
		u.popLoadQ(e)
		if u.cfg.Tech.SpecLoad {
			u.addSpecEntry(e, false)
		}
		if u.cfg.Tech.DetectSC {
			u.addMonitorEntry(e)
		}
		u.emit(ObsForward, e, fwd.data, now)
		u.storeForwards.Inc()
		return true, false
	}

	if u.uncached(e.Addr) && e.Class != ClassRMW {
		// Non-cached location: read it at the memory module, conventionally
		// ordered (the candidate filter already held it back).
		req := cache.Request{Kind: cache.ReqRead, ID: u.newID(e, roleDemand), Addr: e.Addr}
		u.cache.UncachedAccess(req, now)
		e.issued = true
		e.issuedAt = now
		u.popLoadQ(e)
		u.emit(ObsLoadIssued, e, 0, now)
		u.Stats.Counter("uncached_loads").Inc()
		return true, false
	}

	isRMW := e.Class == ClassRMW
	var req cache.Request
	if isRMW {
		req = cache.Request{Kind: cache.ReqReadEx, ID: u.newID(e, roleSpec), Addr: e.Addr}
	} else {
		req = cache.Request{Kind: cache.ReqRead, ID: u.newID(e, roleDemand), Addr: e.Addr}
	}
	res := u.cache.Access(req, now)
	switch res {
	case cache.Blocked:
		u.dropID(req.ID)
		return false, true
	case cache.Hit, cache.Miss, cache.Merged:
		if isRMW {
			e.specIssued = true
			u.emit(ObsSpecIssued, e, 0, now)
		} else {
			e.issued = true
			e.issuedAt = now
			u.emit(ObsLoadIssued, e, 0, now)
		}
		u.popLoadQ(e)
		if u.cfg.Tech.SpecLoad {
			u.addSpecEntry(e, isRMW)
		}
		if u.cfg.Tech.DetectSC {
			u.addMonitorEntry(e)
		}
		u.loadsIssued.Inc()
		return res != cache.Merged, false
	default:
		panic("core: unexpected access result for load")
	}
}

// allOlderDone reports whether every access older than e has performed.
// Software prefetches are skipped: they are non-binding and unordered.
func (u *LSU) allOlderDone(e *Entry) bool {
	for _, o := range u.entries {
		if o.Seq >= e.Seq {
			return true
		}
		if !o.Done && !o.Class.isSWPrefetch() {
			return false
		}
	}
	return true
}

func (u *LSU) issueStore(e *Entry, now uint64) (usedPort, blocked bool) {
	kind := cache.ReqWrite
	if e.Class == ClassRMW {
		kind = cache.ReqRMW
	}
	req := cache.Request{Kind: kind, ID: u.newID(e, roleDemand), Addr: e.Addr, Data: e.data, RMW: e.RMW}
	if u.uncached(e.Addr) {
		// Perform at the memory module, never caching the line.
		u.cache.UncachedAccess(req, now)
		e.issued = true
		e.issuedAt = now
		u.emit(ObsStoreIssued, e, 0, now)
		u.Stats.Counter("uncached_rmws").Inc()
		return true, false
	}
	res := u.cache.Access(req, now)
	switch res {
	case cache.Blocked:
		u.dropID(req.ID)
		return false, true
	case cache.Hit, cache.Miss, cache.Merged:
		e.issued = true
		e.issuedAt = now
		if u.cfg.Tech.DetectSC {
			u.addMonitorEntry(e)
		}
		u.emit(ObsStoreIssued, e, 0, now)
		u.storesIssued.Inc()
		return res != cache.Merged, false
	default:
		panic("core: unexpected access result for store")
	}
}

func (u *LSU) popLoadQ(e *Entry) {
	for i, q := range u.loadQ {
		if q == e {
			copy(u.loadQ[i:], u.loadQ[i+1:])
			u.loadQ = u.loadQ[:len(u.loadQ)-1]
			return
		}
	}
}

// addSpecEntry appends a row to the speculative-load buffer at issue time
// (§4.2: "Loads that are retired from the reservation station are put into
// the buffer in addition to being issued to the memory system"). A
// reissued load keeps its original row — the buffer stays in program order
// and never holds two rows for one access.
//
// Both Figure 4 fields come from Figure 1's delay arcs, the predicate
// conventional issue uses: the acq bit is set when the load would delay a
// later ordinary load, and the store tag names the youngest older
// incomplete write the load would have to wait for.
func (u *LSU) addSpecEntry(e *Entry, isRMW bool) {
	for _, existing := range u.spec {
		if existing.e == e {
			return
		}
	}
	s := u.newRow(specEntry{
		e:     e,
		acq:   blocksIssue(u.cfg.Model, e.Class, ClassLoad),
		isRMW: isRMW,
	})
	if isRMW {
		// Appendix A: the store tag names the RMW's own atomic operation in
		// the store buffer.
		s.storeTag = e
	} else {
		for _, o := range u.entries {
			if o.Seq >= e.Seq {
				break
			}
			if !o.Done && o.IsWrite() && blocksIssue(u.cfg.Model, o.Class, e.Class) {
				s.storeTag = o // youngest such write wins
			}
		}
	}
	u.spec = append(u.spec, s)
	u.specEntries.Inc()
}

// prefetchTick issues at most one hardware prefetch for an access that is
// delayed by consistency constraints (§3.2: prefetches are generated for
// accesses sitting in the load or store buffers that are delayed; they use
// cache cycles that demand accesses are not using).
func (u *LSU) prefetchTick(now uint64) {
	e, kind := u.prefetchCandidate()
	if e == nil {
		return
	}
	res := u.cache.Access(cache.Request{Kind: kind, Addr: e.Addr}, now)
	switch res {
	case cache.Miss, cache.PrefetchDropped:
		e.prefetched = true
		if res == cache.Miss {
			u.emit(ObsPrefetch, e, 0, now)
		}
		u.prefetchAttempts.Inc()
		// Port consumed either way.
	case cache.Blocked:
		return
	default:
		panic("core: unexpected access result for prefetch")
	}
}

// prefetchCandidate selects the entry prefetchTick would attempt (and the
// request kind) without side effects, so NextWake can share the selection.
func (u *LSU) prefetchCandidate() (*Entry, cache.ReqKind) {
	for _, e := range u.entries {
		if e.Done || e.issued || e.specIssued || e.prefetched || e.forwarded || !e.AddrReady {
			continue
		}
		var kind cache.ReqKind
		switch e.Class {
		case ClassLoad, ClassAcquire:
			// With speculative loads enabled, reads issue eagerly anyway.
			if u.cfg.Tech.SpecLoad {
				continue
			}
			if u.predicateOK(e) {
				continue // not delayed: it will issue as a demand access
			}
			kind = cache.ReqPrefetch
		case ClassStore, ClassRelease, ClassRMW:
			if e.atHead && u.predicateOK(e) {
				continue
			}
			if e.Class == ClassRMW && u.cfg.Tech.SpecLoad {
				continue // the speculative read-exclusive covers it
			}
			kind = cache.ReqPrefetchEx
		}
		return e, kind
	}
	return nil, 0
}

// TickComplete processes store-buffer forwarding completions; call once per
// cycle after cache.Tick.
func (u *LSU) TickComplete(now uint64) {
	if len(u.forwards) == 0 {
		return
	}
	due := u.forwards[:0]
	fire := u.fireScratch[:0]
	for _, f := range u.forwards {
		if f.at <= now {
			fire = append(fire, f)
		} else {
			due = append(due, f)
		}
	}
	u.forwards = due
	for _, f := range fire {
		u.AccessComplete(f.id, f.value, now)
	}
	u.fireScratch = fire[:0]
}
