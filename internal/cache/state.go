package cache

import (
	"fmt"
	"slices"
	"sort"

	"mcmsim/internal/network"
	"mcmsim/internal/stats"
)

// LineState is one serialized way of a set, including Invalid entries:
// the physical slice order and the lastUse stamps are what the LRU victim
// scan observes, so both are captured verbatim rather than re-derived.
type LineState struct {
	Addr     uint64
	State    uint8
	Data     []int64
	GrantVer uint64
	LastUse  uint64
}

// AckPoolState is one banked early acknowledgement (an InvAck that arrived
// before its requester's fill): (line, transaction tag) -> count.
type AckPoolState struct {
	LineAddr uint64
	Tag      uint64
	Count    int
}

// DeferredEventState is one coherence event that arrived during a fill and
// waits in the MSHR to be applied in directory order.
type DeferredEventState struct {
	Type      network.MsgType
	Tag       uint64
	Word      uint64
	Value     int64
	Requester network.NodeID
}

// MSHRState is one outstanding line fill, mid-flight: the merged waiters in
// arrival order, the deferred coherence events in directory order, and the
// partial fill response.
type MSHRState struct {
	LineAddr    uint64
	Exclusive   bool
	Waiters     []Request
	Deferred    []DeferredEventState
	DataArrived bool
	Data        []int64
	GrantVer    uint64
	AcksNeeded  int
	AcksGot     int
	AckKnown    bool
	Escalate    bool
}

// CompletionState is one scheduled hit completion.
type CompletionState struct {
	At  uint64
	Req Request
}

// WritebackState is one writeback awaiting the directory's acknowledgement.
type WritebackState struct {
	LineAddr uint64
	Data     []int64
}

// UpdateXactState is one outstanding update-protocol write transaction.
type UpdateXactState struct {
	Req        Request
	Word       uint64
	DirTag     uint64
	AcksNeeded int
	AcksGot    int
	DoneSeen   bool
	OldValue   int64
}

// PinState is one line's count of scheduled-but-unfinished hit completions.
type PinState struct {
	LineAddr uint64
	Count    int
}

// SavedState is the serializable state of one private cache, mid-flight
// included: the data arrays, the LRU clock, banked early acks, every
// outstanding transaction (MSHRs with their waiters and deferred events,
// scheduled completions, writebacks, update transactions, install retries,
// pins, NST credits) and the statistics. At quiescence the transient
// sections are empty and the encoding matches the old quiescent-only form
// field for field. (Named SavedState because State is the per-line MSI
// enum.)
type SavedState struct {
	Sets     [][]LineState // [set][way], physical order preserved
	UseClock uint64
	AckPool  []AckPoolState // sorted by (LineAddr, Tag)
	Stats    stats.State

	MSHRs []MSHRState // sorted by LineAddr
	// RetryInstalls references MSHRs by line address, in retry order: a
	// stalled install's MSHR stays allocated, so the slice entries alias the
	// map entries and are restored as the same pointers.
	RetryInstalls  []uint64
	Completions    []CompletionState // schedule order preserved
	Writebacks     []WritebackState  // sorted by LineAddr
	Xacts          []UpdateXactState // FIFO order preserved
	Pinned         []PinState        // sorted by LineAddr
	NSTOutstanding int
}

// ExportState captures the cache state, mid-flight transactions included.
func (c *Cache) ExportState() (SavedState, error) {
	st := SavedState{
		Stats:          c.Stats.ExportState(),
		UseClock:       c.useClock,
		Sets:           make([][]LineState, c.cfg.Sets),
		NSTOutstanding: c.nstOutstanding,
	}
	// Every touched set's lines share one array, and their data words
	// another, each sized in a first pass; the 3-index slices keep a set
	// or a line's Data from growing into its neighbour's.
	var nlines, nwords int
	for i := range st.Sets {
		for _, l := range c.set(i) {
			nlines++
			nwords += len(l.data)
		}
	}
	lines, words := make([]LineState, 0, nlines), make([]int64, 0, nwords)
	for i := range st.Sets {
		first := len(lines)
		for _, l := range c.set(i) {
			ls := LineState{Addr: l.addr, State: uint8(l.state), GrantVer: l.grantVer, LastUse: l.lastUse}
			if len(l.data) > 0 {
				w := len(words)
				words = append(words, l.data...)
				ls.Data = words[w:len(words):len(words)]
			}
			lines = append(lines, ls)
		}
		if len(lines) > first {
			st.Sets[i] = lines[first:len(lines):len(lines)]
		}
	}
	for k, n := range c.ackPool {
		st.AckPool = append(st.AckPool, AckPoolState{LineAddr: k.lineAddr, Tag: k.tag, Count: n})
	}
	sort.Slice(st.AckPool, func(i, j int) bool {
		if st.AckPool[i].LineAddr != st.AckPool[j].LineAddr {
			return st.AckPool[i].LineAddr < st.AckPool[j].LineAddr
		}
		return st.AckPool[i].Tag < st.AckPool[j].Tag
	})

	for _, ms := range c.mshrs {
		e := MSHRState{
			LineAddr: ms.lineAddr, Exclusive: ms.exclusive,
			DataArrived: ms.dataArrived, Data: slices.Clone(ms.data), GrantVer: ms.grantVer,
			AcksNeeded: ms.acksNeeded, AcksGot: ms.acksGot, AckKnown: ms.ackKnown,
			Escalate: ms.escalate,
		}
		for _, w := range ms.waiters {
			e.Waiters = append(e.Waiters, w.req)
		}
		for _, d := range ms.deferred {
			e.Deferred = append(e.Deferred, DeferredEventState{
				Type: d.typ, Tag: d.tag, Word: d.word, Value: d.value, Requester: d.requester,
			})
		}
		st.MSHRs = append(st.MSHRs, e)
	}
	sort.Slice(st.MSHRs, func(i, j int) bool { return st.MSHRs[i].LineAddr < st.MSHRs[j].LineAddr })

	for _, ms := range c.retryInstalls {
		if c.mshrs[ms.lineAddr] != ms {
			return SavedState{}, fmt.Errorf("cache %d: retrying install for line %#x has no live MSHR", c.ID, ms.lineAddr)
		}
		st.RetryInstalls = append(st.RetryInstalls, ms.lineAddr)
	}
	for _, comp := range c.completions {
		st.Completions = append(st.Completions, CompletionState{At: comp.at, Req: comp.req})
	}
	for addr, wb := range c.wb {
		st.Writebacks = append(st.Writebacks, WritebackState{LineAddr: addr, Data: slices.Clone(wb.data)})
	}
	sort.Slice(st.Writebacks, func(i, j int) bool { return st.Writebacks[i].LineAddr < st.Writebacks[j].LineAddr })
	for _, x := range c.xacts {
		st.Xacts = append(st.Xacts, UpdateXactState{
			Req: x.req, Word: x.word, DirTag: x.dirTag,
			AcksNeeded: x.acksNeeded, AcksGot: x.acksGot, DoneSeen: x.doneSeen, OldValue: x.oldValue,
		})
	}
	for addr, n := range c.pinned {
		st.Pinned = append(st.Pinned, PinState{LineAddr: addr, Count: n})
	}
	sort.Slice(st.Pinned, func(i, j int) bool { return st.Pinned[i].LineAddr < st.Pinned[j].LineAddr })
	return st, nil
}

// RestoreState replaces the cache's entire state — arrays, transients and
// statistics — with the exported one; any in-progress state the cache held
// is discarded. The geometry must match the cache's configuration. Every
// data array is copied, so the restored cache never aliases st.
func (c *Cache) RestoreState(st SavedState) error {
	if len(st.Sets) != c.cfg.Sets {
		return fmt.Errorf("cache %d: snapshot has %d sets, cache has %d", c.ID, len(st.Sets), c.cfg.Sets)
	}
	for i, ways := range st.Sets {
		if len(ways) != 0 && len(ways) != c.cfg.Ways {
			return fmt.Errorf("cache %d: snapshot set %d has %d ways, cache has %d", c.ID, i, len(ways), c.cfg.Ways)
		}
	}
	c.setTab = nil
	clear(c.setOf)
	for i, ways := range st.Sets {
		// A set is either untouched (victimize lazily populates it with
		// cfg.Ways Invalid lines on first install) or fully populated;
		// restoring an empty set as a zero-way set would defeat the lazy
		// init and leave installs retrying forever.
		if len(ways) == 0 {
			continue
		}
		set := newSet(len(ways))
		for w, ls := range ways {
			*set[w] = line{addr: ls.Addr, state: State(ls.State), data: slices.Clone(ls.Data), grantVer: ls.GrantVer, lastUse: ls.LastUse}
		}
		c.setTab = append(c.setTab, set)
		c.setOf[i] = int32(len(c.setTab))
	}
	c.useClock = st.UseClock
	c.ackPool = make(map[ackKey]int, len(st.AckPool))
	for _, a := range st.AckPool {
		c.ackPool[ackKey{lineAddr: a.LineAddr, tag: a.Tag}] = a.Count
	}

	c.mshrs = make(map[uint64]*mshr, len(st.MSHRs))
	for _, e := range st.MSHRs {
		ms := &mshr{
			lineAddr: e.LineAddr, exclusive: e.Exclusive,
			dataArrived: e.DataArrived, data: slices.Clone(e.Data), grantVer: e.GrantVer,
			acksNeeded: e.AcksNeeded, acksGot: e.AcksGot, ackKnown: e.AckKnown,
			escalate: e.Escalate,
		}
		for _, req := range e.Waiters {
			ms.waiters = append(ms.waiters, waiter{req: req})
		}
		for _, d := range e.Deferred {
			ms.deferred = append(ms.deferred, deferredEvent{
				typ: d.Type, tag: d.Tag, word: d.Word, value: d.Value, requester: d.Requester,
			})
		}
		c.mshrs[e.LineAddr] = ms
	}
	c.retryInstalls = c.retryInstalls[:0]
	for _, addr := range st.RetryInstalls {
		ms, ok := c.mshrs[addr]
		if !ok {
			return fmt.Errorf("cache %d: snapshot retries install for line %#x with no MSHR", c.ID, addr)
		}
		c.retryInstalls = append(c.retryInstalls, ms)
	}
	c.completions = c.completions[:0]
	for _, comp := range st.Completions {
		c.completions = append(c.completions, completion{at: comp.At, req: comp.Req})
	}
	c.wb = make(map[uint64]*wbEntry, len(st.Writebacks))
	for _, wb := range st.Writebacks {
		c.wb[wb.LineAddr] = &wbEntry{data: slices.Clone(wb.Data)}
	}
	c.xacts = c.xacts[:0]
	for _, x := range st.Xacts {
		c.xacts = append(c.xacts, &updateXact{
			req: x.Req, word: x.Word, dirTag: x.DirTag,
			acksNeeded: x.AcksNeeded, acksGot: x.AcksGot, doneSeen: x.DoneSeen, oldValue: x.OldValue,
		})
	}
	c.pinned = make(map[uint64]int, len(st.Pinned))
	for _, p := range st.Pinned {
		c.pinned[p.LineAddr] = p.Count
	}
	c.nstOutstanding = st.NSTOutstanding
	return c.Stats.RestoreState(st.Stats)
}
