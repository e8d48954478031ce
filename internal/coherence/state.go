package coherence

import (
	"fmt"
	"sort"

	"mcmsim/internal/network"
	"mcmsim/internal/stats"
)

// LineState is the serializable directory entry for one line, including a
// busy recall transaction mid-flight: the recall tag, the request being
// served and the requests queued behind it are captured by value (the
// directory retained the live messages past delivery, so the snapshot must
// not alias the pool). The version must persist even for uncached lines —
// grants already handed out carry it, and caches order racing messages by
// it.
type LineState struct {
	Addr    uint64
	State   uint8
	Sharers []network.NodeID // ascending; exact-mode sharers (empty if coarse)
	Owner   network.NodeID
	Ver     uint64
	// Coarse is the line's coarse-vector word when limited-pointer tracking
	// overflowed (nonzero exactly in coarse mode); its group layout is the
	// writer's sharerConfig, so restore requires an identically configured
	// directory.
	Coarse uint64

	// Busy recall transaction (empty at quiescence).
	Busy       bool
	RecallTag  uint64
	PendingReq *network.MessageState
	WaitQ      []network.MessageState // FIFO order preserved
}

// State is the serializable state of one home module. Ingress holds the
// requests admitted but not yet serviced under bounded directory bandwidth,
// in arrival order; empty at quiescence.
type State struct {
	Lines   []LineState // ascending by Addr
	Stats   stats.State
	Ingress []network.MessageState
}

// ExportState captures the directory state, busy transactions included.
func (d *Directory) ExportState() (State, error) {
	var st State
	if err := d.ExportStateInto(&st); err != nil {
		return State{}, err
	}
	return st, nil
}

// ExportStateInto captures the directory into st, reusing st's backing
// storage (per-window engine checkpoints call this on every dispatched home
// shard). Reused inner buffers are read out of the previous capture's slot
// before append overwrites that slot of the shared backing array.
func (d *Directory) ExportStateInto(st *State) error {
	d.Stats.ExportStateInto(&st.Stats)
	prev := st.Lines
	st.Lines = st.Lines[:0]
	li := 0
	for addr, l := range d.lines {
		var sharerBuf []network.NodeID
		var waitBuf []network.MessageState
		if li < len(prev) {
			sharerBuf, waitBuf = prev[li].Sharers[:0], prev[li].WaitQ[:0]
		}
		li++
		ls := LineState{
			Addr: addr, State: uint8(l.state), Owner: l.owner, Ver: l.ver,
			Coarse: l.sharers.coarse,
			Busy:   l.busy, RecallTag: l.recallTag,
		}
		ls.Sharers = append(sharerBuf, l.sharers.ptrs...) // already ascending
		if l.pendingReq != nil {
			ms := network.ExportMessage(l.pendingReq)
			ls.PendingReq = &ms
		}
		ls.WaitQ = waitBuf
		for _, m := range l.waitQ {
			ls.WaitQ = append(ls.WaitQ, network.ExportMessage(m))
		}
		st.Lines = append(st.Lines, ls)
	}
	sort.Slice(st.Lines, func(i, j int) bool { return st.Lines[i].Addr < st.Lines[j].Addr })
	st.Ingress = st.Ingress[:0]
	for _, m := range d.ingress {
		st.Ingress = append(st.Ingress, network.ExportMessage(m))
	}
	return nil
}

// RestoreState replaces the directory's entire state — line table, busy
// transactions, ingress queue and statistics — with the exported one. Any
// in-progress state the directory held is discarded (the shard engine's
// rollback path); retained messages are materialized as fresh
// allocations, since the originals may have been recycled. The directory
// recycles them like any retained message once served.
func (d *Directory) RestoreState(st State) error {
	// Rollback restores once per mis-speculated window; reuse the discarded
	// table's dirLine objects and inner buffers in place (*dirLine never
	// escapes the package).
	d.linePool = d.linePool[:0]
	for _, l := range d.lines {
		d.linePool = append(d.linePool, l)
	}
	if d.lines == nil {
		d.lines = make(map[uint64]*dirLine, len(st.Lines))
	} else {
		clear(d.lines)
	}
	for i, ls := range st.Lines {
		var l *dirLine
		if i < len(d.linePool) {
			l = d.linePool[i]
		} else {
			l = new(dirLine)
		}
		ptrBuf, waitBuf := l.sharers.ptrs[:0], l.waitQ[:0]
		*l = dirLine{state: dirState(ls.State), owner: ls.Owner, ver: ls.Ver, busy: ls.Busy, recallTag: ls.RecallTag}
		if ls.Coarse != 0 {
			if d.sharerCfg.pointers <= 0 {
				return fmt.Errorf("coherence: coarse-vector line %#x restored into an exact-tracking directory", ls.Addr)
			}
			l.sharers.coarse = ls.Coarse
		} else {
			l.sharers.ptrs = append(ptrBuf, ls.Sharers...)
			sort.Slice(l.sharers.ptrs, func(i, j int) bool { return l.sharers.ptrs[i] < l.sharers.ptrs[j] })
		}
		if ls.PendingReq != nil {
			l.pendingReq = ls.PendingReq.Instantiate()
		}
		l.waitQ = waitBuf
		for _, ms := range ls.WaitQ {
			l.waitQ = append(l.waitQ, ms.Instantiate())
		}
		d.lines[ls.Addr] = l
	}
	d.ingress = d.ingress[:0]
	for _, ms := range st.Ingress {
		d.ingress = append(d.ingress, ms.Instantiate())
	}
	return d.Stats.RestoreState(st.Stats)
}
