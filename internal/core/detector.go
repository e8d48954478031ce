package core

// The SC-violation detector (§6 / reference [6]): a second buffer with the
// speculative-load buffer's shape but sequential consistency's retirement
// rules and no correction mechanism. Every load enters at issue; an entry
// leaves once the load and everything older have performed — the window in
// which an incoming invalidation, update or replacement of its line means
// the load may have bound a value SC would have forbidden. Matches are
// counted, not corrected.

// addMonitorEntry registers an issued access with the detector — but only
// when the access is actually early: if everything older has performed, the
// access performs in sequentially consistent order by construction and
// needs no watching. Both reads and writes are monitored ("the extended
// technique needs to check for violations of SC arising from performing
// either a read or a write access out of order", §6).
func (u *LSU) addMonitorEntry(e *Entry) {
	if u.allOlderDone(e) {
		return
	}
	u.monitor = append(u.monitor, u.newRow(specEntry{e: e, acq: true}))
}

// monitorCoherenceEvent matches a coherence event against the detector and
// counts possible SC violations. Matched entries are removed so one early
// access is counted once.
func (u *LSU) monitorCoherenceEvent(line uint64) {
	kept := u.monitor[:0]
	for _, s := range u.monitor {
		if u.geom.LineOf(s.e.Addr) == line && !s.e.forwarded {
			u.Stats.Counter("sc_violations_detected").Inc()
			u.releaseRow(s)
			continue
		}
		kept = append(kept, s)
	}
	u.monitor = kept
}

// retireMonitorEntries pops detector entries whose access has performed
// and has no older incomplete access — by SC's rules it is no longer
// early. FIFO, mirroring the speculative-load buffer; but unlike the
// buffer's single store tag, the detector checks *all* older accesses
// directly, because on relaxed hardware they complete out of order and a
// nullified youngest-tag would under-approximate the SC window (the
// zero-detections guarantee must hold).
func (u *LSU) retireMonitorEntries() {
	n := 0
	for _, s := range u.monitor {
		if !s.e.Done {
			break
		}
		if !u.allOlderDone(s.e) {
			break
		}
		n++
	}
	if n > 0 {
		for _, s := range u.monitor[:n] {
			u.releaseRow(s)
		}
		u.monitor = u.monitor[:copy(u.monitor, u.monitor[n:])]
	}
}

// flushMonitor drops detector entries at or after rob (pipeline flush).
func (u *LSU) flushMonitor(rob uint64) {
	kept := u.monitor[:0]
	for _, s := range u.monitor {
		if s.e.Seq < rob {
			kept = append(kept, s)
		} else {
			u.releaseRow(s)
		}
	}
	u.monitor = kept
}

// SCViolations reports the number of possible sequential-consistency
// violations the detector observed.
func (u *LSU) SCViolations() uint64 {
	return u.Stats.Counter("sc_violations_detected").Value()
}
