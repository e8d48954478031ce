package stats

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("fresh counter = %d", c.Value())
	}
	c.Inc()
	c.Inc()
	c.Add(5)
	if c.Value() != 7 {
		t.Fatalf("counter = %d, want 7", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("reset counter = %d", c.Value())
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	for _, v := range []int64{5, 1, 9, 3, 7} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 25 {
		t.Errorf("sum = %d", h.Sum())
	}
	if h.Mean() != 5 {
		t.Errorf("mean = %f", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 9 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
	if p := h.Percentile(50); p != 5 {
		t.Errorf("p50 = %d", p)
	}
	if p := h.Percentile(0); p != 1 {
		t.Errorf("p0 = %d", p)
	}
	if p := h.Percentile(100); p != 9 {
		t.Errorf("p100 = %d", p)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 || h.Percentile(50) != 0 {
		t.Error("empty histogram should report zeros")
	}
}

// TestHistogramPercentileOrder property: percentiles are monotonically
// non-decreasing and bounded by min/max for arbitrary sample sets.
func TestHistogramPercentileOrder(t *testing.T) {
	f := func(samples []int64) bool {
		if len(samples) == 0 {
			return true
		}
		var h Histogram
		for _, v := range samples {
			h.Observe(v)
		}
		prev := h.Min()
		for p := 0.0; p <= 100; p += 7 {
			v := h.Percentile(p)
			if v < prev || v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHistogramSumMatchesManual property: Sum equals the manual sum, and
// Max equals the sorted maximum.
func TestHistogramSumMatchesManual(t *testing.T) {
	f := func(samples []int16) bool {
		var h Histogram
		var want int64
		for _, v := range samples {
			h.Observe(int64(v))
			want += int64(v)
		}
		if h.Sum() != want {
			return false
		}
		if len(samples) > 0 {
			s := make([]int64, len(samples))
			for i, v := range samples {
				s[i] = int64(v)
			}
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			if h.Max() != s[len(s)-1] || h.Min() != s[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSetCreatesAndReuses(t *testing.T) {
	s := NewSet("comp")
	c1 := s.Counter("hits")
	c1.Inc()
	c2 := s.Counter("hits")
	if c2.Value() != 1 {
		t.Error("counter not reused by name")
	}
	h1 := s.Histogram("lat")
	h1.Observe(3)
	if s.Histogram("lat").Count() != 1 {
		t.Error("histogram not reused by name")
	}
	if s.Name() != "comp" {
		t.Errorf("name = %q", s.Name())
	}
}

func TestSetNamesSorted(t *testing.T) {
	s := NewSet("x")
	s.Counter("zeta")
	s.Counter("alpha")
	s.Counter("mid")
	names := s.CounterNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("names not sorted: %v", names)
	}
	if len(names) != 3 {
		t.Errorf("len = %d", len(names))
	}
}

func TestSetReset(t *testing.T) {
	s := NewSet("x")
	s.Counter("a").Add(10)
	s.Histogram("h").Observe(4)
	s.Reset()
	if s.Counter("a").Value() != 0 || s.Histogram("h").Count() != 0 {
		t.Error("reset did not clear metrics")
	}
}

func TestSetStringRendering(t *testing.T) {
	s := NewSet("unit")
	s.Counter("events").Add(3)
	s.Histogram("lat").Observe(7)
	out := s.String()
	if out == "" {
		t.Fatal("empty render")
	}
	for _, want := range []string{"unit.events = 3", "unit.lat"} {
		if !contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		h.Observe(rng.Int63n(1000))
	}
}

// TestHistogramMatchesSortedSamples property: every summary statistic read
// off the buckets equals the one computed from the sorted raw samples
// (nearest rank), including values far above any latency cutoff.
func TestHistogramMatchesSortedSamples(t *testing.T) {
	f := func(raw []int32, big []uint16) bool {
		var h Histogram
		var s []int64
		for _, v := range raw {
			s = append(s, int64(v%64))
		}
		for _, v := range big {
			s = append(s, 30000+int64(v))
		}
		for _, v := range s {
			h.Observe(v)
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		if len(s) == 0 {
			return h.Count() == 0 && h.Min() == 0 && h.Max() == 0 && h.Percentile(50) == 0
		}
		for _, p := range []float64{0, 1, 25, 50, 75, 90, 99, 99.9, 100} {
			rank := int(p / 100 * float64(len(s)))
			if rank >= len(s) {
				rank = len(s) - 1
			}
			if h.Percentile(p) != s[rank] {
				return false
			}
		}
		return h.Count() == len(s) && h.Min() == s[0] && h.Max() == s[len(s)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestHistogramStateRoundTrip: the exported buckets ascend with nonzero
// counts, and a restored histogram reports exactly what the original did.
func TestHistogramStateRoundTrip(t *testing.T) {
	s := NewSet("x")
	for _, v := range []int64{400, 1, 400, 35000, 1, 100, 400} {
		s.Histogram("lat").Observe(v)
	}
	st := s.ExportState()
	hs := st.Histograms[0]
	if want := []int64{1, 100, 400, 35000}; !reflect.DeepEqual(hs.Values, want) {
		t.Errorf("values = %v, want %v", hs.Values, want)
	}
	if want := []uint64{2, 1, 3, 1}; !reflect.DeepEqual(hs.Counts, want) {
		t.Errorf("counts = %v, want %v", hs.Counts, want)
	}
	r := NewSet("x")
	if err := r.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if got, want := r.String(), s.String(); got != want {
		t.Errorf("restored report %q, want %q", got, want)
	}
	if r.Histogram("lat").Sum() != s.Histogram("lat").Sum() {
		t.Error("restored sum differs")
	}
}

// TestStateValidate: RestoreState refuses malformed buckets and leaves the
// set untouched.
func TestStateValidate(t *testing.T) {
	for name, hs := range map[string]HistogramState{
		"unsorted":   {Name: "h", Values: []int64{5, 3}, Counts: []uint64{1, 1}},
		"duplicate":  {Name: "h", Values: []int64{3, 3}, Counts: []uint64{1, 1}},
		"zero count": {Name: "h", Values: []int64{3}, Counts: []uint64{0}},
		"shape":      {Name: "h", Values: []int64{3, 4}, Counts: []uint64{1}},
		"overflow":   {Name: "h", Values: []int64{3, 4}, Counts: []uint64{1 << 63, 1 << 63}},
	} {
		s := NewSet("x")
		s.Counter("c").Inc()
		if err := s.RestoreState(State{Histograms: []HistogramState{hs}}); err == nil {
			t.Errorf("%s: RestoreState accepted invalid buckets", name)
		}
		if s.Counter("c").Value() != 1 {
			t.Errorf("%s: a refused restore changed the set", name)
		}
	}
}

// TestCounterRef: a ref registers its counter on first use only, shares it
// with Set.Counter, and re-resolves after a restore drops or replaces it.
func TestCounterRef(t *testing.T) {
	s := NewSet("x")
	r := s.Ref("hits")
	if len(s.CounterNames()) != 0 {
		t.Fatal("Ref registered the counter before its first use")
	}
	r.Inc()
	r.Add(2)
	if got := s.Counter("hits").Value(); got != 3 {
		t.Fatalf("hits = %d, want 3", got)
	}
	// A restore without the counter drops it: the ref must not keep
	// counting into the dropped object.
	if err := s.RestoreState(State{}); err != nil {
		t.Fatal(err)
	}
	if len(s.CounterNames()) != 0 {
		t.Fatal("restore kept a counter absent from the state")
	}
	r.Inc()
	if got := s.Counter("hits").Value(); got != 1 {
		t.Errorf("after restore hits = %d, want 1", got)
	}
	if err := s.RestoreState(State{Counters: []CounterState{{Name: "hits", Value: 10}}}); err != nil {
		t.Fatal(err)
	}
	r.Inc()
	if got := s.Counter("hits").Value(); got != 11 {
		t.Errorf("after restoring 10, hits = %d, want 11", got)
	}
}
