package runner

import (
	"sync"

	"mcmsim/internal/sim"
)

// WarmupSpec declares a job's warmup phase so the pool can deduplicate it:
// jobs whose Keys are equal share one simulated warmup, cloned through a
// machine snapshot for every other job.
type WarmupSpec struct {
	// Key fingerprints everything that can influence the warmed machine:
	// the complete configuration the warmup runs under, the warmup
	// programs, preloads and scheduled writes. Jobs may share a key only
	// when their warmed machines are identical; conservative keys (extra
	// distinctions) cost duplicate warmups, never correctness.
	Key string

	// Build constructs the machine and runs its warmup to quiescence.
	Build func() (*sim.System, error)

	// Finish turns the warmed machine into the measured configuration —
	// typically switching the measured technique and loading the measured
	// programs. It runs per job, on the job's own clone. May be nil.
	Finish func(s *sim.System) error
}

// WarmupSource provides warmed machines by key. WarmupCache is its only
// implementation, used by the in-process pool and by every farm worker
// session; the interface stays because perfbench names it. An
// implementation must return a snapshot every consumer can restore
// privately, and must call build at most once per key.
type WarmupSource interface {
	// Machine returns the warmup snapshot for key, invoking build to
	// simulate the warmup if no other consumer has produced it yet.
	Machine(key string, build func() (*sim.System, error)) (*sim.Machine, error)
}

// WarmupCache memoizes warmup phases across the jobs of one Run by key:
// the first job with a given key simulates the warmup and snapshots it;
// every job (including the builder) then restores a private clone from the
// snapshot, so a cached and an uncached sweep execute the measured phase
// on byte-identical machines. Safe for concurrent use by the pool's
// workers.
type WarmupCache struct {
	mu      sync.Mutex
	entries map[string]*warmEntry

	hits, misses uint64
}

type warmEntry struct {
	ready chan struct{} // closed once snap/err are set
	snap  *sim.Machine
	err   error
}

// NewWarmupCache returns an empty cache, typically shared across all jobs
// of one sweep invocation via Options.WarmupCache.
func NewWarmupCache() *WarmupCache {
	return &WarmupCache{entries: make(map[string]*warmEntry)}
}

// Stats reports how many warmup requests hit the memo versus simulating.
func (c *WarmupCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Machine returns the snapshot for a warmup key, simulating the warmup via
// build exactly once per key (other callers wait for the builder).
func (c *WarmupCache) Machine(key string, build func() (*sim.System, error)) (*sim.Machine, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
		e = &warmEntry{ready: make(chan struct{})}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if !ok {
		func() {
			defer close(e.ready)
			s, err := build()
			if err != nil {
				e.err = err
				return
			}
			e.snap, e.err = s.Snapshot()
		}()
	}
	<-e.ready
	return e.snap, e.err
}

// configureWarm produces the job's measured machine from its warmup spec:
// through the source when one is installed (build or reuse the snapshot,
// then restore a private clone), or by simulating the warmup directly when
// not. Finish then runs on the job's machine either way.
func configureWarm(w *WarmupSpec, src WarmupSource) (*sim.System, error) {
	var s *sim.System
	if src == nil {
		var err error
		if s, err = w.Build(); err != nil {
			return nil, err
		}
	} else {
		snap, err := src.Machine(w.Key, w.Build)
		if err != nil {
			return nil, err
		}
		if s, err = sim.Restore(snap); err != nil {
			return nil, err
		}
	}
	if w.Finish != nil {
		if err := w.Finish(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}
