package stats

// State is the serializable contents of a Set, used by the machine
// snapshots (internal/snapshot). Counters and histograms are listed in
// sorted name order so that encoding a State is deterministic (the Set's
// maps must never be serialized directly: map iteration order would leak
// into the bytes).
type State struct {
	Counters   []CounterState
	Histograms []HistogramState
}

// CounterState is one named counter value.
type CounterState struct {
	Name  string
	Value uint64
}

// HistogramState is one named histogram's raw samples. Samples are stored
// as recorded; summary statistics (sum, order statistics) are recomputed
// on restore, so the encoded form carries no derivable state.
type HistogramState struct {
	Name    string
	Samples []int64
}

// ExportState captures every metric in the set, including zero-valued
// counters and empty histograms: a metric's presence (it was registered)
// is itself observable in String().
func (s *Set) ExportState() State {
	var st State
	s.ExportStateInto(&st)
	return st
}

// ExportStateInto captures the set into st, reusing st's backing storage.
// A speculative shard window checkpoints every dispatched component;
// reusing the previous window's buffers keeps that off the allocator.
func (s *Set) ExportStateInto(st *State) {
	st.Counters = st.Counters[:0]
	for _, n := range s.CounterNames() {
		st.Counters = append(st.Counters, CounterState{Name: n, Value: s.counters[n].Value()})
	}
	prev := st.Histograms
	st.Histograms = st.Histograms[:0]
	for i, n := range s.HistogramNames() {
		var buf []int64
		if i < len(prev) {
			buf = prev[i].Samples[:0]
		}
		st.Histograms = append(st.Histograms, HistogramState{Name: n, Samples: append(buf, s.hists[n].samples...)})
	}
}

// RestoreState replaces the set's metrics with the exported ones. Existing
// Counter/Histogram pointers registered by components stay valid when their
// names appear in the state (values are overwritten in place); metrics not
// in the state are dropped.
func (s *Set) RestoreState(st State) {
	s.cNames, s.hNames = nil, nil
	keepC := make(map[string]bool, len(st.Counters))
	for _, cs := range st.Counters {
		keepC[cs.Name] = true
		s.Counter(cs.Name).n = cs.Value
	}
	for n := range s.counters {
		if !keepC[n] {
			delete(s.counters, n)
		}
	}
	keepH := make(map[string]bool, len(st.Histograms))
	for _, hs := range st.Histograms {
		keepH[hs.Name] = true
		h := s.Histogram(hs.Name)
		h.samples = append(h.samples[:0], hs.Samples...)
		h.sorted = false
		h.sum = 0
		for _, v := range hs.Samples {
			h.sum += v
		}
	}
	for n := range s.hists {
		if !keepH[n] {
			delete(s.hists, n)
		}
	}
}
