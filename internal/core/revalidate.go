package core

import "mcmsim/internal/cache"

// The revalidation detection policy (§4.1's repeat-and-compare): suspect
// entries wait until the model would have allowed the load, are re-read,
// and squash only if the fresh value differs from the speculated one.

// markSuspect records a coherence match against a completed speculative
// load under the revalidation policy.
func (u *LSU) markSuspect(s *specEntry) {
	if !s.suspect {
		s.suspect = true
		u.Stats.Counter("spec_suspects").Inc()
	}
}

// revalidationCandidate returns the spec-buffer head if it is a suspect
// entry whose constraints are satisfied (the point at which the
// conventional implementation would have performed the access) and whose
// re-read has not been issued yet.
func (u *LSU) revalidationCandidate() *specEntry {
	if len(u.spec) == 0 {
		return nil
	}
	s := u.spec[0]
	if !s.suspect || s.revalIssued || s.isRMW {
		return nil
	}
	if s.storeTag != nil || !s.done() {
		return nil
	}
	return s
}

// issueRevalidation sends the repeat access. Consumes the cache port (the
// policy's cost: the cache is accessed a second time). Returns whether the
// port was used.
func (u *LSU) issueRevalidation(s *specEntry, now uint64) bool {
	id := u.newRevalID(s)
	res := u.cache.Access(cache.Request{Kind: cache.ReqRead, ID: id, Addr: s.e.Addr}, now)
	if res == cache.Blocked {
		u.dropID(id)
		return false
	}
	s.revalIssued = true
	u.Stats.Counter("revalidations").Inc()
	return res != cache.Merged
}

// newRevalID allocates a cache-access id that routes back to the spec entry
// rather than the entry's normal completion path.
func (u *LSU) newRevalID(s *specEntry) uint64 {
	u.nextID++
	id := u.nextID
	u.ids[id] = idTarget{e: s.e, role: roleReval}
	s.e.idRefs++
	u.revalBySeq[s.e.Seq] = s
	return id
}

// completeRevalidation resolves a repeat-read: equal values retire the
// entry (the speculation was correct despite the coherence event — false
// sharing or a same-value write); different values squash from the load,
// exactly like the conservative policy's rollback.
func (u *LSU) completeRevalidation(e *Entry, fresh int64, now uint64) {
	s, ok := u.revalBySeq[e.Seq]
	if !ok {
		return
	}
	delete(u.revalBySeq, e.Seq)
	if fresh == e.Value {
		s.revalOK = true
		u.Stats.Counter("revalidations_ok").Inc()
		u.retireSpecEntries(now)
		return
	}
	u.Stats.Counter("revalidations_failed").Inc()
	u.Stats.Counter("spec_squashes").Inc()
	u.emit(ObsSquashFlush, e, 0, now)
	u.cpu.FlushFrom(e.Seq, now)
}
