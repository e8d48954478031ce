package stats

import (
	"fmt"
	"math"
)

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

// HistogramState is one named histogram's buckets: Values are the distinct
// sample values in strictly ascending order and Counts[i] (nonzero) is how
// many samples equal Values[i]. The sum is recomputed on restore, so the
// encoded form carries no derivable state, and since the buckets are kept
// sorted, identical histograms encode to identical bytes whatever was read
// from them before.
type HistogramState struct {
	Name   string
	Values []int64
	Counts []uint64
}

// ExportState captures every metric in the set, including zero-valued
// counters and empty histograms: a metric's presence (it was registered)
// is itself observable in String().
func (s *Set) ExportState() State {
	var st State
	for _, n := range s.CounterNames() {
		st.Counters = append(st.Counters, CounterState{Name: n, Value: s.counters[n].Value()})
	}
	for _, n := range s.HistogramNames() {
		hs := HistogramState{Name: n}
		for _, b := range s.hists[n].buckets {
			hs.Values, hs.Counts = append(hs.Values, b.v), append(hs.Counts, b.n)
		}
		st.Histograms = append(st.Histograms, hs)
	}
	return st
}

// Validate checks the invariants RestoreState relies on: every histogram
// has one nonzero count per value, the values strictly ascend, and the
// total count fits the histogram's sample counter.
func (st *State) Validate() error {
	for _, hs := range st.Histograms {
		if len(hs.Values) != len(hs.Counts) {
			return fmt.Errorf("stats: histogram %q has %d values and %d counts", hs.Name, len(hs.Values), len(hs.Counts))
		}
		var total uint64
		for i, c := range hs.Counts {
			if c == 0 {
				return fmt.Errorf("stats: histogram %q has an empty bucket for %d", hs.Name, hs.Values[i])
			}
			if i > 0 && hs.Values[i] <= hs.Values[i-1] {
				return fmt.Errorf("stats: histogram %q values not strictly ascending at %d", hs.Name, hs.Values[i])
			}
			if c > math.MaxInt-total {
				return fmt.Errorf("stats: histogram %q sample count overflows", hs.Name)
			}
			total += c
		}
	}
	return nil
}

// RestoreState replaces the set's metrics with the exported ones, after
// validating st (a snapshot may come from the network). Existing
// Counter/Histogram pointers registered by components stay valid when their
// names appear in the state (values are overwritten in place); metrics not
// in the state are dropped, and every CounterRef of the set resolves again.
func (s *Set) RestoreState(st State) error {
	if err := st.Validate(); err != nil {
		return err
	}
	s.cNames, s.hNames = nil, nil
	s.gen++
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
		h.Reset()
		for i, c := range hs.Counts {
			h.buckets = append(h.buckets, bucket{v: hs.Values[i], n: c})
			h.n += int(c)
			h.sum += hs.Values[i] * int64(c)
		}
	}
	for n := range s.hists {
		if !keepH[n] {
			delete(s.hists, n)
		}
	}
	return nil
}
