package core

// NextWake is the LSU's quiescence probe for the simulator's wake
// schedule and the shard engine. It answers, without mutating anything: can
// TickComplete or TickIssue change state at cycle `now`, and if not, at
// which future cycle could they on their own? The checks mirror TickIssue's
// phases via the read-only candidate selectors; any existing candidate
// counts as busy even if the cache would block it, because the dense loop
// retries blocked candidates every cycle and counts those retries in the
// stats (mshr_blocked, wb_stalls) — skipping them would change the report.
func (u *LSU) NextWake(now uint64) (uint64, bool) {
	wake := uint64(0)
	ok := false
	for _, f := range u.forwards {
		if f.at <= now {
			return now, true
		}
		if !ok || f.at < wake {
			wake, ok = f.at, true
		}
	}
	// Address computation: the unit is FIFO, so only a ready head makes
	// progress (an unready head's operand arrival is the CPU's wake).
	if len(u.rs) > 0 && u.rs[0].baseReady {
		return now, true
	}
	if u.peekLoadCandidate() != nil {
		return now, true
	}
	if u.nextStoreCandidate() != nil {
		return now, true
	}
	if u.cfg.Tech.Revalidate && u.revalidationCandidate() != nil {
		return now, true
	}
	if len(u.swpfQ) > 0 {
		return now, true
	}
	if u.cfg.Tech.Prefetch {
		if e, _ := u.prefetchCandidate(); e != nil {
			return now, true
		}
	}
	return wake, ok
}
