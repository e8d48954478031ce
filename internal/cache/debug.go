package cache

import "fmt"

// DebugMSHRs renders outstanding fills for diagnostics.
func (c *Cache) DebugMSHRs() []string {
	var out []string
	for a, m := range c.mshrs {
		out = append(out, fmt.Sprintf("line=%#x ex=%v data=%v ackKnown=%v acks=%d/%d waiters=%d deferred=%d",
			a, m.exclusive, m.dataArrived, m.ackKnown, m.acksGot, m.acksNeeded, len(m.waiters), len(m.deferred)))
	}
	return out
}

// DebugLine renders the resident state of one line.
func (c *Cache) DebugLine(lineAddr uint64) string {
	l := c.lookup(lineAddr)
	if l == nil {
		return "absent"
	}
	return fmt.Sprintf("%v ver=%d data=%v", l.state, l.grantVer, l.data)
}

// DirtyLines returns a copy of every Modified line's data, keyed by line
// address, including lines in the victim writeback buffer. The simulator
// overlays these on main memory to produce the coherent memory view.
func (c *Cache) DirtyLines() map[uint64][]int64 {
	out := make(map[uint64][]int64)
	for _, set := range c.sets {
		for _, l := range set {
			if l != nil && l.state == Modified {
				out[l.addr] = append([]int64(nil), l.data...)
			}
		}
	}
	for a, e := range c.wb {
		if _, dup := out[a]; !dup {
			out[a] = append([]int64(nil), e.data...)
		}
	}
	return out
}

// DebugPending renders the completion queue, writeback buffer and retry
// queue for diagnostics.
func (c *Cache) DebugPending() string {
	s := ""
	for _, comp := range c.completions {
		s += fmt.Sprintf("  completion at=%d kind=%v addr=%#x id=%d\n", comp.at, comp.req.Kind, comp.req.Addr, comp.req.ID)
	}
	for a := range c.wb {
		s += fmt.Sprintf("  wb line=%#x\n", a)
	}
	for _, ms := range c.retryInstalls {
		s += fmt.Sprintf("  retryInstall line=%#x\n", ms.lineAddr)
	}
	return s
}
