package core

import (
	"fmt"
	"sort"

	"mcmsim/internal/isa"
	"mcmsim/internal/stats"
)

// This file serializes the load/store unit mid-flight. The LSU is a graph
// of *Entry pointers shared between the live-entry list, the issue queues,
// the speculative-load buffer, the SC-violation monitor, the id map and the
// store-forwarding links; the serialized form flattens every reference to
// the entry's Seq (ROB identifier — unique for the lifetime of a program
// phase) and restore rebuilds the pointer graph from one table.

// EntryState mirrors Entry by value.
type EntryState struct {
	Seq   uint64
	Class AccessClass
	RMW   isa.RMWKind

	Base      int64
	BaseReady bool
	Imm       int64
	Addr      uint64
	AddrReady bool
	Data      int64
	DataReady bool

	InStoreBuf bool
	AtHead     bool
	Issued     bool
	IssuedAt   uint64
	DispatchAt uint64
	Done       bool
	Value      int64

	SpecIssued bool
	SpecDone   bool
	SpecValue  int64

	Prefetched  bool
	OwnershipOK bool
	Forwarded   bool
	// FwdFromSeq is the Seq of the buffered store the value was forwarded
	// from; valid only when HasFwdFrom (Seq 0 is a legitimate identifier).
	HasFwdFrom bool
	FwdFromSeq uint64

	SquashedAfterIssue bool
	Retired            bool

	DemandID uint64
	SpecID   uint64
}

// SpecRowState is one speculative-load-buffer or SC-monitor row, with the
// entry references flattened to Seqs.
type SpecRowState struct {
	Seq         uint64
	Acq         bool
	HasStoreTag bool
	StoreTagSeq uint64
	IsRMW       bool
	Suspect     bool
	RevalIssued bool
	RevalOK     bool
}

// IDState is one live cache-access identifier: the entry it belongs to and
// the role (demand access, speculative read-exclusive, revalidation).
type IDState struct {
	ID   uint64
	Seq  uint64
	Role uint8
}

// ForwardState is one scheduled store-buffer forwarding completion.
type ForwardState struct {
	At    uint64
	ID    uint64
	Value int64
}

// LSUState is the serializable state of one load/store unit, mid-flight
// included: the live entries in program order, each queue as Seq references
// in queue order, the speculative-load and monitor buffers, the id map, the
// pending revalidations and the scheduled forwards, plus the statistics.
type LSUState struct {
	Stats stats.State

	Entries []EntryState // program order (u.entries verbatim)
	// MonitorOrphans are entries referenced by monitor rows after being
	// pruned from the live-entry list (the monitor holds its own pointer and
	// does not pin entries the way the speculative-load buffer does).
	MonitorOrphans []EntryState // ascending by Seq

	RS       []uint64 // Seq refs, queue order
	LoadQ    []uint64
	StoreBuf []uint64
	SwpfQ    []uint64

	Spec    []SpecRowState // buffer order (head first)
	Monitor []SpecRowState

	IDs      []IDState // ascending by ID
	NextID   uint64
	RevalSeq []uint64       // entry Seqs with a pending revalidation, ascending
	Forwards []ForwardState // schedule order
}

func exportEntry(e *Entry) EntryState {
	st := EntryState{
		Seq: e.Seq, Class: e.Class, RMW: e.RMW,
		Base: e.base, BaseReady: e.baseReady, Imm: e.imm,
		Addr: e.Addr, AddrReady: e.AddrReady,
		Data: e.data, DataReady: e.dataReady,
		InStoreBuf: e.inStoreBuf, AtHead: e.atHead,
		Issued: e.issued, IssuedAt: e.issuedAt, DispatchAt: e.dispatchAt,
		Done: e.Done, Value: e.Value,
		SpecIssued: e.specIssued, SpecDone: e.specDone, SpecValue: e.specValue,
		Prefetched: e.prefetched, OwnershipOK: e.ownershipOK, Forwarded: e.forwarded,
		SquashedAfterIssue: e.squashedAfterIssue, Retired: e.retired,
		DemandID: e.demandID, SpecID: e.specID,
	}
	if e.fwdFrom != nil {
		st.HasFwdFrom = true
		st.FwdFromSeq = e.fwdFrom.Seq
	}
	return st
}

func fillEntry(e *Entry, st EntryState) {
	*e = Entry{
		Seq: st.Seq, Class: st.Class, RMW: st.RMW,
		base: st.Base, baseReady: st.BaseReady, imm: st.Imm,
		Addr: st.Addr, AddrReady: st.AddrReady,
		data: st.Data, dataReady: st.DataReady,
		inStoreBuf: st.InStoreBuf, atHead: st.AtHead,
		issued: st.Issued, issuedAt: st.IssuedAt, dispatchAt: st.DispatchAt,
		Done: st.Done, Value: st.Value,
		specIssued: st.SpecIssued, specDone: st.SpecDone, specValue: st.SpecValue,
		prefetched: st.Prefetched, ownershipOK: st.OwnershipOK, forwarded: st.Forwarded,
		squashedAfterIssue: st.SquashedAfterIssue, retired: st.Retired,
		demandID: st.DemandID, specID: st.SpecID,
	}
}

func exportSpecRow(s *specEntry) SpecRowState {
	row := SpecRowState{
		Seq: s.e.Seq, Acq: s.acq, IsRMW: s.isRMW,
		Suspect: s.suspect, RevalIssued: s.revalIssued, RevalOK: s.revalOK,
	}
	if s.storeTag != nil {
		row.HasStoreTag = true
		row.StoreTagSeq = s.storeTag.Seq
	}
	return row
}

// ExportState captures the LSU, mid-flight work included.
func (u *LSU) ExportState() (LSUState, error) {
	st := LSUState{Stats: u.Stats.ExportState(), NextID: u.nextID}
	inEntries := make(map[uint64]bool, len(u.entries))
	for _, e := range u.entries {
		st.Entries = append(st.Entries, exportEntry(e))
		inEntries[e.Seq] = true
	}
	orphans := map[uint64]*Entry{}
	noteOrphan := func(e *Entry) {
		if e != nil && !inEntries[e.Seq] {
			orphans[e.Seq] = e
		}
	}
	seqs := func(es []*Entry) []uint64 {
		var buf []uint64
		for _, e := range es {
			if !inEntries[e.Seq] {
				return nil // caught below with a precise error
			}
			buf = append(buf, e.Seq)
		}
		return buf
	}
	for name, q := range map[string][]*Entry{"rs": u.rs, "loadQ": u.loadQ, "storeBuf": u.storeBuf, "swpfQ": u.swpfQ} {
		for _, e := range q {
			if !inEntries[e.Seq] {
				return LSUState{}, fmt.Errorf("core: lsu%d %s references seq %d outside the live window", u.Proc, name, e.Seq)
			}
		}
	}
	st.RS, st.LoadQ, st.StoreBuf, st.SwpfQ = seqs(u.rs), seqs(u.loadQ), seqs(u.storeBuf), seqs(u.swpfQ)
	for _, e := range u.entries {
		// A load can keep its forwarding link after the source store
		// retired and was pruned (the link is only ever compared against
		// still-buffered stores, but it must survive a round trip).
		noteOrphan(e.fwdFrom)
	}
	for _, s := range u.spec {
		if !inEntries[s.e.Seq] {
			return LSUState{}, fmt.Errorf("core: lsu%d spec row references seq %d outside the live window", u.Proc, s.e.Seq)
		}
		noteOrphan(s.storeTag)
		st.Spec = append(st.Spec, exportSpecRow(s))
	}
	for _, s := range u.monitor {
		noteOrphan(s.e)
		noteOrphan(s.storeTag)
		st.Monitor = append(st.Monitor, exportSpecRow(s))
	}
	for id, t := range u.ids {
		if !inEntries[t.e.Seq] {
			noteOrphan(t.e)
		}
		st.IDs = append(st.IDs, IDState{ID: id, Seq: t.e.Seq, Role: uint8(t.role)})
	}
	sort.Slice(st.IDs, func(i, j int) bool { return st.IDs[i].ID < st.IDs[j].ID })
	for seq := range u.revalBySeq {
		st.RevalSeq = append(st.RevalSeq, seq)
	}
	sort.Slice(st.RevalSeq, func(i, j int) bool { return st.RevalSeq[i] < st.RevalSeq[j] })
	for _, f := range u.forwards {
		st.Forwards = append(st.Forwards, ForwardState{At: f.at, ID: f.id, Value: f.value})
	}
	// Close the orphan set over forwarding links, so restore can rebuild
	// the full pointer graph. (In practice one pass suffices — forwarding
	// sources are stores and stores never forward — but a worklist keeps
	// the invariant rather than the assumption.)
	for changed := true; changed; {
		changed = false
		for _, e := range orphans {
			if e.fwdFrom != nil && !inEntries[e.fwdFrom.Seq] && orphans[e.fwdFrom.Seq] == nil {
				orphans[e.fwdFrom.Seq] = e.fwdFrom
				changed = true
			}
		}
	}
	for _, e := range orphans {
		st.MonitorOrphans = append(st.MonitorOrphans, exportEntry(e))
	}
	sort.Slice(st.MonitorOrphans, func(i, j int) bool { return st.MonitorOrphans[i].Seq < st.MonitorOrphans[j].Seq })
	return st, nil
}

// RestoreState replaces the LSU's entire state — entries, queues, buffers,
// ids and statistics — with the exported one; any in-progress state is
// discarded. The cached histogram pointers are dropped:
// Stats.RestoreState drops histograms absent from the state, so stale
// pointers would record into orphaned metrics.
func (u *LSU) RestoreState(st LSUState) error {
	if err := u.validateState(&st); err != nil {
		return err
	}
	// The discarded entries and rows go back to the pools and are refilled
	// in place: *Entry pointers never escape the package (cross-component
	// references are by cache-access id), and every structure that could
	// name an old entry or row is rebuilt below. Entries reachable only
	// from the old monitor or id map are left to the garbage collector.
	for _, e := range u.entries {
		u.releaseEntry(e)
	}
	for _, rs := range [][]*specEntry{u.spec, u.monitor} {
		for _, s := range rs {
			u.releaseRow(s)
		}
	}
	alloc := func(es EntryState) *Entry {
		e := u.newEntry()
		fillEntry(e, es)
		return e
	}
	bySeq := make(map[uint64]*Entry, len(st.Entries)+len(st.MonitorOrphans))
	u.entries = u.entries[:0]
	for _, es := range st.Entries {
		e := alloc(es)
		u.entries = append(u.entries, e)
		bySeq[e.Seq] = e
	}
	for _, es := range st.MonitorOrphans {
		bySeq[es.Seq] = alloc(es)
	}
	link := func(es []EntryState) error {
		for _, s := range es {
			if !s.HasFwdFrom {
				continue
			}
			src, ok := bySeq[s.FwdFromSeq]
			if !ok {
				return fmt.Errorf("core: lsu%d snapshot forwards seq %d from unknown seq %d", u.Proc, s.Seq, s.FwdFromSeq)
			}
			bySeq[s.Seq].fwdFrom = src
			src.fwdSource = true
		}
		return nil
	}
	if err := link(st.Entries); err != nil {
		return err
	}
	if err := link(st.MonitorOrphans); err != nil {
		return err
	}
	resolve := func(what string, dst []*Entry, seqs []uint64) ([]*Entry, error) {
		dst = dst[:0]
		for _, seq := range seqs {
			e, ok := bySeq[seq]
			if !ok {
				return nil, fmt.Errorf("core: lsu%d snapshot %s references unknown seq %d", u.Proc, what, seq)
			}
			dst = append(dst, e)
		}
		return dst, nil
	}
	var err error
	if u.rs, err = resolve("rs", u.rs, st.RS); err != nil {
		return err
	}
	if u.loadQ, err = resolve("loadQ", u.loadQ, st.LoadQ); err != nil {
		return err
	}
	if u.storeBuf, err = resolve("storeBuf", u.storeBuf, st.StoreBuf); err != nil {
		return err
	}
	if u.swpfQ, err = resolve("swpfQ", u.swpfQ, st.SwpfQ); err != nil {
		return err
	}
	rows := func(what string, dst []*specEntry, rs []SpecRowState) ([]*specEntry, error) {
		dst = dst[:0]
		for _, r := range rs {
			e, ok := bySeq[r.Seq]
			if !ok {
				return nil, fmt.Errorf("core: lsu%d snapshot %s row references unknown seq %d", u.Proc, what, r.Seq)
			}
			s := u.newRow(specEntry{e: e, acq: r.Acq, isRMW: r.IsRMW, suspect: r.Suspect, revalIssued: r.RevalIssued, revalOK: r.RevalOK})
			if r.HasStoreTag {
				tag, ok := bySeq[r.StoreTagSeq]
				if !ok {
					return nil, fmt.Errorf("core: lsu%d snapshot %s row tags unknown seq %d", u.Proc, what, r.StoreTagSeq)
				}
				s.storeTag = tag
			}
			dst = append(dst, s)
		}
		return dst, nil
	}
	if u.spec, err = rows("spec", u.spec, st.Spec); err != nil {
		return err
	}
	if u.monitor, err = rows("monitor", u.monitor, st.Monitor); err != nil {
		return err
	}
	if u.ids == nil {
		u.ids = make(map[uint64]idTarget, len(st.IDs))
	} else {
		clear(u.ids)
	}
	for _, is := range st.IDs {
		e, ok := bySeq[is.Seq]
		if !ok {
			return fmt.Errorf("core: lsu%d snapshot id %d references unknown seq %d", u.Proc, is.ID, is.Seq)
		}
		u.ids[is.ID] = idTarget{e: e, role: entryRole(is.Role)}
		e.idRefs++
	}
	u.nextID = st.NextID
	if u.revalBySeq == nil {
		u.revalBySeq = make(map[uint64]*specEntry, len(st.RevalSeq))
	} else {
		clear(u.revalBySeq)
	}
	for _, seq := range st.RevalSeq {
		var row *specEntry
		for _, s := range u.spec {
			if s.e.Seq == seq {
				row = s
				break
			}
		}
		if row == nil {
			return fmt.Errorf("core: lsu%d snapshot revalidates seq %d with no spec row", u.Proc, seq)
		}
		u.revalBySeq[seq] = row
	}
	u.forwards = u.forwards[:0]
	for _, f := range st.Forwards {
		u.forwards = append(u.forwards, forwardCompletion{at: f.At, id: f.ID, value: f.Value})
	}
	u.latHist = [numAccessClasses]*stats.Histogram{}
	return u.Stats.RestoreState(st.Stats)
}

// validateState checks the invariants restore and the live unit rely on,
// since a snapshot may arrive from the network: entries and monitor
// orphans each strictly ascend by Seq and never share one, every access
// class and id role is known, and live ids strictly ascend up to NextID.
func (u *LSU) validateState(st *LSUState) error {
	inEntries := func(seq uint64) bool {
		i := sort.Search(len(st.Entries), func(i int) bool { return st.Entries[i].Seq >= seq })
		return i < len(st.Entries) && st.Entries[i].Seq == seq
	}
	for _, es := range [][]EntryState{st.Entries, st.MonitorOrphans} {
		for i, e := range es {
			if i > 0 && e.Seq <= es[i-1].Seq {
				return fmt.Errorf("core: lsu%d snapshot entries not in ascending order at seq %d", u.Proc, e.Seq)
			}
			if int(e.Class) >= numAccessClasses {
				return fmt.Errorf("core: lsu%d snapshot seq %d has unknown access class %d", u.Proc, e.Seq, e.Class)
			}
		}
	}
	for _, e := range st.MonitorOrphans {
		if inEntries(e.Seq) {
			return fmt.Errorf("core: lsu%d snapshot orphan seq %d is also live", u.Proc, e.Seq)
		}
	}
	for i, is := range st.IDs {
		if (i > 0 && is.ID <= st.IDs[i-1].ID) || is.ID > st.NextID {
			return fmt.Errorf("core: lsu%d snapshot id %d out of order (ids must ascend up to NextID %d)", u.Proc, is.ID, st.NextID)
		}
		if entryRole(is.Role) > roleReval {
			return fmt.Errorf("core: lsu%d snapshot id %d has unknown role %d", u.Proc, is.ID, is.Role)
		}
	}
	return nil
}
