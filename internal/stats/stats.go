// Package stats provides lightweight counters and histograms used by every
// component of the simulator. All collection is deterministic and
// allocation-light so that statistics can stay enabled during benchmarks.
package stats

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	n uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds delta to the counter.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.n = 0 }

// CounterRef is one named counter of a Set, resolved by name on its first
// use and reached through the cached pointer afterwards, so a counter that
// is bumped for every instruction or access costs no map lookup. As with
// Set.Counter, the counter appears in the set (and in reports) only from
// its first use. Set.RestoreState drops counters absent from the restored
// state, so every ref of the set re-resolves after a restore.
type CounterRef struct {
	set  *Set
	name string
	c    *Counter
	gen  uint64
}

// Inc adds one to the counter.
func (r *CounterRef) Inc() { r.Add(1) }

// Add adds delta to the counter.
func (r *CounterRef) Add(delta uint64) {
	if r.c == nil || r.gen != r.set.gen {
		r.c = r.set.Counter(r.name)
		r.gen = r.set.gen
	}
	r.c.n += delta
}

// Histogram collects integer samples and reports exact summary order
// statistics. It keeps one count per distinct value, in ascending value
// order, so its memory is bounded by the number of distinct values rather
// than by run length, and every order statistic is read off the counts
// without sorting anything.
type Histogram struct {
	buckets []bucket // strictly ascending by value; counts never zero
	n       int
	sum     int64
}

type bucket struct {
	v int64
	n uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	lo, hi := 0, len(h.buckets)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.buckets[mid].v < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.buckets) && h.buckets[lo].v == v {
		h.buckets[lo].n++
	} else {
		h.buckets = slices.Insert(h.buckets, lo, bucket{v: v, n: 1})
	}
	h.n++
	h.sum += v
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int { return h.n }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Max returns the largest sample, or 0 when empty.
func (h *Histogram) Max() int64 {
	if len(h.buckets) == 0 {
		return 0
	}
	return h.buckets[len(h.buckets)-1].v
}

// Min returns the smallest sample, or 0 when empty.
func (h *Histogram) Min() int64 {
	if len(h.buckets) == 0 {
		return 0
	}
	return h.buckets[0].v
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank, or 0 when empty.
func (h *Histogram) Percentile(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.Min()
	}
	if p >= 100 {
		return h.Max()
	}
	rank := uint64(p / 100 * float64(h.n))
	for _, b := range h.buckets {
		if rank < b.n {
			return b.v
		}
		rank -= b.n
	}
	return h.Max()
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.buckets = h.buckets[:0]
	h.n = 0
	h.sum = 0
}

// Set is a named collection of counters and histograms. Components create
// one Set and register the metrics they expose; the simulator aggregates
// Sets for reporting.
type Set struct {
	name     string
	counters map[string]*Counter
	hists    map[string]*Histogram

	// Cached sorted name lists (nil = stale). Metric registration is rare
	// and enumeration is frequent: reports and snapshots both walk the
	// names in sorted order.
	cNames, hNames []string

	// gen counts restores; a CounterRef resolved under an older generation
	// may point at a dropped counter and resolves again.
	gen uint64
}

// NewSet creates an empty metric set with the given component name.
func NewSet(name string) *Set {
	return &Set{
		name:     name,
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Name returns the component name the set was created with.
func (s *Set) Name() string { return s.name }

// Counter returns the counter with the given name, creating it on first use.
func (s *Set) Counter(name string) *Counter {
	c, ok := s.counters[name]
	if !ok {
		c = &Counter{}
		s.counters[name] = c
		s.cNames = nil
	}
	return c
}

// Ref returns a handle on the named counter that resolves it on first use
// (see CounterRef).
func (s *Set) Ref(name string) CounterRef { return CounterRef{set: s, name: name} }

// Histogram returns the histogram with the given name, creating it on first
// use.
func (s *Set) Histogram(name string) *Histogram {
	h, ok := s.hists[name]
	if !ok {
		h = &Histogram{}
		s.hists[name] = h
		s.hNames = nil
	}
	return h
}

// Reset zeroes every metric in the set.
func (s *Set) Reset() {
	for _, c := range s.counters {
		c.Reset()
	}
	for _, h := range s.hists {
		h.Reset()
	}
}

// CounterNames returns the sorted names of all counters in the set. The
// returned slice is shared; callers must not modify it.
func (s *Set) CounterNames() []string {
	if s.cNames == nil {
		s.cNames = make([]string, 0, len(s.counters))
		for n := range s.counters {
			s.cNames = append(s.cNames, n)
		}
		sort.Strings(s.cNames)
	}
	return s.cNames
}

// HistogramNames returns the sorted names of all histograms in the set.
// The returned slice is shared; callers must not modify it.
func (s *Set) HistogramNames() []string {
	if s.hNames == nil {
		s.hNames = make([]string, 0, len(s.hists))
		for n := range s.hists {
			s.hNames = append(s.hNames, n)
		}
		sort.Strings(s.hNames)
	}
	return s.hNames
}

// String renders the set as a human-readable table, one metric per line.
func (s *Set) String() string {
	var b strings.Builder
	for _, n := range s.CounterNames() {
		fmt.Fprintf(&b, "%s.%s = %d\n", s.name, n, s.counters[n].Value())
	}
	for _, n := range s.HistogramNames() {
		h := s.hists[n]
		fmt.Fprintf(&b, "%s.%s = {n=%d mean=%.2f min=%d p50=%d p99=%d max=%d}\n",
			s.name, n, h.Count(), h.Mean(), h.Min(), h.Percentile(50), h.Percentile(99), h.Max())
	}
	return b.String()
}
