package coherence

import (
	"cmp"
	"fmt"
	"slices"

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
func (d *Directory) ExportState() State {
	st := State{Stats: d.Stats.ExportState(), Lines: make([]LineState, 0, len(d.lines))}
	for addr, l := range d.lines {
		ls := LineState{
			Addr: addr, State: uint8(l.state), Owner: l.owner, Ver: l.ver,
			Sharers: slices.Clone(l.sharers.ptrs), // already ascending
			Coarse:  l.sharers.coarse,
			Busy:    l.busy, RecallTag: l.recallTag,
		}
		if l.pendingReq != nil {
			ms := network.ExportMessage(l.pendingReq)
			ls.PendingReq = &ms
		}
		for _, m := range l.waitQ {
			ls.WaitQ = append(ls.WaitQ, network.ExportMessage(m))
		}
		st.Lines = append(st.Lines, ls)
	}
	slices.SortFunc(st.Lines, func(a, b LineState) int { return cmp.Compare(a.Addr, b.Addr) })
	for _, m := range d.ingress {
		st.Ingress = append(st.Ingress, network.ExportMessage(m))
	}
	return st
}

// RestoreState replaces the directory's entire state — line table, busy
// transactions, ingress queue and statistics — with the exported one,
// after validating it (a snapshot may come from the network). Retained
// messages are materialized as fresh allocations; the directory recycles
// them like any retained message once served.
func (d *Directory) RestoreState(st State) error {
	if err := d.validateState(&st); err != nil {
		return err
	}
	d.lines = make(map[uint64]*dirLine, len(st.Lines))
	for _, ls := range st.Lines {
		l := &dirLine{state: dirState(ls.State), owner: ls.Owner, ver: ls.Ver, busy: ls.Busy, recallTag: ls.RecallTag}
		if ls.Coarse != 0 {
			l.sharers.coarse = ls.Coarse
		} else {
			l.sharers.ptrs = slices.Clone(ls.Sharers)
		}
		if ls.PendingReq != nil {
			l.pendingReq = ls.PendingReq.Instantiate()
		}
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

// validateState checks the line invariants the protocol handlers rely on:
// a known state, exact-mode sharers strictly ascending (as ExportState
// writes them), coarse vectors only where limited-pointer tracking can
// produce them, a pending request behind every busy line, and an owner
// behind every exclusive line. The snapshot's node-range checks bound
// owners and sharers above.
func (d *Directory) validateState(st *State) error {
	for _, ls := range st.Lines {
		bad := func(what string) error {
			return fmt.Errorf("coherence: directory %d line %#x %s", d.ID, ls.Addr, what)
		}
		switch {
		case dirState(ls.State) > dirExclusive:
			return bad(fmt.Sprintf("has unknown state %d", ls.State))
		case ls.Coarse != 0 && d.sharerCfg.pointers <= 0:
			return bad("has a coarse vector in an exact-tracking directory")
		case ls.Busy && ls.PendingReq == nil:
			return bad("is busy with no pending request")
		case dirState(ls.State) == dirExclusive && ls.Owner < 0:
			return bad("is exclusive with no owner")
		}
		for i := 1; i < len(ls.Sharers); i++ {
			if ls.Sharers[i] <= ls.Sharers[i-1] {
				return bad("has sharers out of ascending order")
			}
		}
	}
	return nil
}
