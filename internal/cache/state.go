package cache

import (
	"fmt"
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

// copyWordsInto copies w into buf's backing storage, preserving nil-ness
// (buf is a spent buffer from a previous checkpoint, or nil).
func copyWordsInto(buf, w []int64) []int64 {
	if w == nil {
		return nil
	}
	return append(buf[:0], w...)
}

// ExportState captures the cache state, mid-flight transactions included.
func (c *Cache) ExportState() (SavedState, error) {
	var st SavedState
	if err := c.ExportStateInto(&st); err != nil {
		return SavedState{}, err
	}
	return st, nil
}

// ExportStateInto captures the cache into st, reusing st's backing storage
// (per-window engine checkpoints call this on every dispatched shard). Each
// reused inner buffer is read out of the previous capture's slot before
// append overwrites that slot of the shared backing array.
func (c *Cache) ExportStateInto(st *SavedState) error {
	c.Stats.ExportStateInto(&st.Stats)
	st.UseClock = c.useClock
	if cap(st.Sets) < c.cfg.Sets {
		st.Sets = make([][]LineState, c.cfg.Sets)
	}
	st.Sets = st.Sets[:c.cfg.Sets]
	for i := range st.Sets {
		set := c.set(i)
		prev := st.Sets[i]
		ways := prev[:0]
		for w, l := range set {
			var buf []int64
			if w < len(prev) {
				buf = prev[w].Data
			}
			ways = append(ways, LineState{Addr: l.addr, State: uint8(l.state), Data: copyWordsInto(buf, l.data), GrantVer: l.grantVer, LastUse: l.lastUse})
		}
		st.Sets[i] = ways
	}
	st.AckPool = st.AckPool[:0]
	for k, n := range c.ackPool {
		st.AckPool = append(st.AckPool, AckPoolState{LineAddr: k.lineAddr, Tag: k.tag, Count: n})
	}
	sort.Slice(st.AckPool, func(i, j int) bool {
		if st.AckPool[i].LineAddr != st.AckPool[j].LineAddr {
			return st.AckPool[i].LineAddr < st.AckPool[j].LineAddr
		}
		return st.AckPool[i].Tag < st.AckPool[j].Tag
	})

	prevM := st.MSHRs
	st.MSHRs = st.MSHRs[:0]
	mi := 0
	for _, ms := range c.mshrs {
		var dataBuf []int64
		var waitBuf []Request
		var defBuf []DeferredEventState
		if mi < len(prevM) {
			dataBuf, waitBuf, defBuf = prevM[mi].Data, prevM[mi].Waiters[:0], prevM[mi].Deferred[:0]
		}
		mi++
		e := MSHRState{
			LineAddr: ms.lineAddr, Exclusive: ms.exclusive,
			DataArrived: ms.dataArrived, Data: copyWordsInto(dataBuf, ms.data), GrantVer: ms.grantVer,
			AcksNeeded: ms.acksNeeded, AcksGot: ms.acksGot, AckKnown: ms.ackKnown,
			Escalate: ms.escalate,
		}
		e.Waiters = waitBuf
		for _, w := range ms.waiters {
			e.Waiters = append(e.Waiters, w.req)
		}
		e.Deferred = defBuf
		for _, d := range ms.deferred {
			e.Deferred = append(e.Deferred, DeferredEventState{
				Type: d.typ, Tag: d.tag, Word: d.word, Value: d.value, Requester: d.requester,
			})
		}
		st.MSHRs = append(st.MSHRs, e)
	}
	sort.Slice(st.MSHRs, func(i, j int) bool { return st.MSHRs[i].LineAddr < st.MSHRs[j].LineAddr })

	st.RetryInstalls = st.RetryInstalls[:0]
	for _, ms := range c.retryInstalls {
		if c.mshrs[ms.lineAddr] != ms {
			return fmt.Errorf("cache %d: retrying install for line %#x has no live MSHR", c.ID, ms.lineAddr)
		}
		st.RetryInstalls = append(st.RetryInstalls, ms.lineAddr)
	}
	st.Completions = st.Completions[:0]
	for _, comp := range c.completions {
		st.Completions = append(st.Completions, CompletionState{At: comp.at, Req: comp.req})
	}
	prevW := st.Writebacks
	st.Writebacks = st.Writebacks[:0]
	wi := 0
	for addr, wb := range c.wb {
		var buf []int64
		if wi < len(prevW) {
			buf = prevW[wi].Data
		}
		wi++
		st.Writebacks = append(st.Writebacks, WritebackState{LineAddr: addr, Data: copyWordsInto(buf, wb.data)})
	}
	sort.Slice(st.Writebacks, func(i, j int) bool { return st.Writebacks[i].LineAddr < st.Writebacks[j].LineAddr })
	st.Xacts = st.Xacts[:0]
	for _, x := range c.xacts {
		st.Xacts = append(st.Xacts, UpdateXactState{
			Req: x.req, Word: x.word, DirTag: x.dirTag,
			AcksNeeded: x.acksNeeded, AcksGot: x.acksGot, DoneSeen: x.doneSeen, OldValue: x.oldValue,
		})
	}
	st.Pinned = st.Pinned[:0]
	for addr, n := range c.pinned {
		st.Pinned = append(st.Pinned, PinState{LineAddr: addr, Count: n})
	}
	sort.Slice(st.Pinned, func(i, j int) bool { return st.Pinned[i].LineAddr < st.Pinned[j].LineAddr })
	st.NSTOutstanding = c.nstOutstanding
	return nil
}

// RestoreState replaces the cache's entire state — arrays, transients and
// statistics — with the exported one. The geometry must match the cache's
// configuration. Any in-progress state the cache held is discarded, which
// is exactly what a speculative shard window's rollback requires.
func (c *Cache) RestoreState(st SavedState) error {
	if len(st.Sets) != c.cfg.Sets {
		return fmt.Errorf("cache %d: snapshot has %d sets, cache has %d", c.ID, len(st.Sets), c.cfg.Sets)
	}
	// The rollback path restores as often as it checkpoints, so the discarded
	// state's allocations — set tables, line objects, their data arrays, the
	// transient maps — are reused in place. Safe because the cache's data
	// arrays are pairwise disjoint at any step boundary: a fill's MSHR hands
	// its array to the installed line and is deleted in the same step, and
	// every message or writeback carries a fresh copy. Old sets are reused
	// in table order: slot k of the shared backing array is read before
	// append overwrites it.
	for i, ways := range st.Sets {
		if len(ways) != 0 && len(ways) != c.cfg.Ways {
			return fmt.Errorf("cache %d: snapshot set %d has %d ways, cache has %d", c.ID, i, len(ways), c.cfg.Ways)
		}
	}
	old := c.setTab
	c.setTab = c.setTab[:0]
	clear(c.setOf)
	for i, ways := range st.Sets {
		// A set is either untouched (victimize lazily populates it with
		// cfg.Ways Invalid lines on first install) or fully populated;
		// restoring an empty set as a zero-way set would defeat the lazy
		// init and leave installs retrying forever.
		if len(ways) == 0 {
			continue
		}
		var set []*line
		if k := len(c.setTab); k < len(old) {
			set = old[k]
		}
		if cap(set) < len(ways) {
			set = make([]*line, len(ways))
		}
		set = set[:len(ways)]
		for w, ls := range ways {
			l := set[w]
			if l == nil {
				l = new(line)
				set[w] = l
			}
			buf := l.data
			*l = line{addr: ls.Addr, state: State(ls.State), data: copyWordsInto(buf, ls.Data), grantVer: ls.GrantVer, lastUse: ls.LastUse}
		}
		c.setTab = append(c.setTab, set)
		c.setOf[i] = int32(len(c.setTab))
	}
	c.useClock = st.UseClock
	if c.ackPool == nil {
		c.ackPool = make(map[ackKey]int, len(st.AckPool))
	} else {
		clear(c.ackPool)
	}
	for _, a := range st.AckPool {
		c.ackPool[ackKey{lineAddr: a.LineAddr, tag: a.Tag}] = a.Count
	}

	c.mshrPool = c.mshrPool[:0]
	for _, ms := range c.mshrs {
		c.mshrPool = append(c.mshrPool, ms)
	}
	if c.mshrs == nil {
		c.mshrs = make(map[uint64]*mshr, len(st.MSHRs))
	} else {
		clear(c.mshrs)
	}
	for i, e := range st.MSHRs {
		var ms *mshr
		if i < len(c.mshrPool) {
			ms = c.mshrPool[i]
		} else {
			ms = new(mshr)
		}
		dataBuf, waitBuf, defBuf := ms.data, ms.waiters[:0], ms.deferred[:0]
		*ms = mshr{
			lineAddr: e.LineAddr, exclusive: e.Exclusive,
			dataArrived: e.DataArrived, data: copyWordsInto(dataBuf, e.Data), grantVer: e.GrantVer,
			acksNeeded: e.AcksNeeded, acksGot: e.AcksGot, ackKnown: e.AckKnown,
			escalate: e.Escalate,
		}
		ms.waiters = waitBuf
		for _, req := range e.Waiters {
			ms.waiters = append(ms.waiters, waiter{req: req})
		}
		ms.deferred = defBuf
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
	c.wbPool = c.wbPool[:0]
	for _, wb := range c.wb {
		c.wbPool = append(c.wbPool, wb)
	}
	if c.wb == nil {
		c.wb = make(map[uint64]*wbEntry, len(st.Writebacks))
	} else {
		clear(c.wb)
	}
	for i, wb := range st.Writebacks {
		var e *wbEntry
		if i < len(c.wbPool) {
			e = c.wbPool[i]
		} else {
			e = new(wbEntry)
		}
		e.data = copyWordsInto(e.data, wb.Data)
		c.wb[wb.LineAddr] = e
	}
	c.xacts = c.xacts[:0]
	for _, x := range st.Xacts {
		c.xacts = append(c.xacts, &updateXact{
			req: x.Req, word: x.Word, dirTag: x.DirTag,
			acksNeeded: x.AcksNeeded, acksGot: x.AcksGot, doneSeen: x.DoneSeen, oldValue: x.OldValue,
		})
	}
	if c.pinned == nil {
		c.pinned = make(map[uint64]int, len(st.Pinned))
	} else {
		clear(c.pinned)
	}
	for _, p := range st.Pinned {
		c.pinned[p.LineAddr] = p.Count
	}
	c.nstOutstanding = st.NSTOutstanding
	return c.Stats.RestoreState(st.Stats)
}
