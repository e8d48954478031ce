package core

// ObsKind classifies LSU observer events (used by the Figure 5 tracer and
// by white-box tests).
type ObsKind uint8

// Observer event kinds.
const (
	ObsLoadIssued    ObsKind = iota // demand or speculative load sent to the cache
	ObsSpecIssued                   // RMW speculative read-exclusive sent
	ObsPrefetch                     // hardware prefetch sent
	ObsForward                      // load satisfied from the store buffer
	ObsLoadDone                     // load value bound
	ObsStoreIssued                  // store/atomic sent to the cache
	ObsStoreDone                    // store performed
	ObsSquashFlush                  // speculative load squashed, pipeline flushed
	ObsSquashReissue                // speculative load reissued only
	ObsRMWLateSquash                // match after the atomic issued (Appendix A)
)

func (k ObsKind) String() string {
	switch k {
	case ObsLoadIssued:
		return "load-issued"
	case ObsSpecIssued:
		return "spec-readex-issued"
	case ObsPrefetch:
		return "prefetch-issued"
	case ObsForward:
		return "store-forward"
	case ObsLoadDone:
		return "load-done"
	case ObsStoreIssued:
		return "store-issued"
	case ObsStoreDone:
		return "store-done"
	case ObsSquashFlush:
		return "squash-flush"
	case ObsSquashReissue:
		return "squash-reissue"
	case ObsRMWLateSquash:
		return "rmw-late-squash"
	default:
		return "obs(?)"
	}
}

// ObsEvent is one observer notification.
type ObsEvent struct {
	Kind  ObsKind
	Seq   uint64
	Class AccessClass
	Addr  uint64
	Value int64
	Cycle uint64
}

// Observe, when set, receives LSU events as they happen. Nil by default;
// the hook must not mutate LSU state.
func (u *LSU) SetObserver(f func(ObsEvent)) { u.observe = f }

func (u *LSU) emit(k ObsKind, e *Entry, value int64, now uint64) {
	if u.observe != nil {
		u.observe(ObsEvent{Kind: k, Seq: e.Seq, Class: e.Class, Addr: e.Addr, Value: value, Cycle: now})
	}
}

// SpecRow is one visible row of the speculative-load buffer (Figure 4's
// four fields).
type SpecRow struct {
	Seq      uint64
	LoadAddr uint64
	Acq      bool
	Done     bool
	HasTag   bool        // store tag is non-null
	TagClass AccessClass // tagged store's class
	TagAddr  uint64      // tagged store's address
	IsRMW    bool
}

// SpecBufferSnapshot renders the speculative-load buffer head-first.
func (u *LSU) SpecBufferSnapshot() []SpecRow {
	rows := make([]SpecRow, 0, len(u.spec))
	for _, s := range u.spec {
		row := SpecRow{
			Seq:      s.e.Seq,
			LoadAddr: s.e.Addr,
			Acq:      s.acq,
			Done:     s.done(),
			IsRMW:    s.isRMW,
		}
		if s.storeTag != nil {
			row.HasTag = true
			row.TagClass = s.storeTag.Class
			row.TagAddr = s.storeTag.Addr
		}
		rows = append(rows, row)
	}
	return rows
}

// StoreRow is one visible store-buffer entry.
type StoreRow struct {
	Seq    uint64
	Class  AccessClass
	Addr   uint64
	Issued bool
	Done   bool
}

// StoreBufferSnapshot renders the store buffer in FIFO order.
func (u *LSU) StoreBufferSnapshot() []StoreRow {
	rows := make([]StoreRow, 0, len(u.storeBuf))
	for _, e := range u.storeBuf {
		rows = append(rows, StoreRow{Seq: e.Seq, Class: e.Class, Addr: e.Addr, Issued: e.issued, Done: e.Done})
	}
	return rows
}
