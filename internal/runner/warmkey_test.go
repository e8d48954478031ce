package runner

import (
	"math/rand"
	"testing"

	"mcmsim/internal/coherence"
	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/sim"
)

// warmProgs is a small fixed warmup workload for the key tests.
func warmProgs() []*isa.Program {
	p0 := isa.NewBuilder()
	p0.StoreAbs(0, 1)
	p0.LoadAbs(1, 8)
	p0.Halt()
	p1 := isa.NewBuilder()
	p1.LoadAbs(0, 0)
	p1.StoreAbs(8, 2)
	p1.Halt()
	return []*isa.Program{p0.Build(), p1.Build()}
}

func baseWarmCfg() sim.Config {
	cfg := sim.PaperConfig()
	cfg.Procs = 2
	return cfg
}

// TestWarmupKeySplitsArchitecturalFields asserts every machine-shaping
// config field splits the key: sharing a warmed snapshot across any of
// these would hand a job a machine it did not describe.
func TestWarmupKeySplitsArchitecturalFields(t *testing.T) {
	progs := warmProgs()
	base := WarmupKey(baseWarmCfg(), progs, nil)

	mutations := []struct {
		name string
		mut  func(*sim.Config)
	}{
		{"protocol", func(c *sim.Config) { c.Protocol = coherence.ProtoMESI }},
		{"topology", func(c *sim.Config) { c.Topo = "mesh:2x1"; c.HopLatency = 10 }},
		{"dir-pointers", func(c *sim.Config) { c.DirPointers = 4 }},
		{"model", func(c *sim.Config) { c.Model = core.RC }},
		{"technique", func(c *sim.Config) { c.Tech.Prefetch = true }},
		{"miss-latency", func(c *sim.Config) { c.MemLatency += 10 }},
		{"line-size", func(c *sim.Config) { c.LineWords *= 2 }},
		{"mem-modules", func(c *sim.Config) { c.MemModules = 2 }},
		{"dir-bandwidth", func(c *sim.Config) { c.DirBandwidth = 1 }},
		{"procs", func(c *sim.Config) { c.Procs = 3 }},
		{"uncached-rmw", func(c *sim.Config) { c.UncachedRMW = map[uint64]bool{64: true} }},
		{"dense-loop", func(c *sim.Config) { c.DenseLoop = true }},
	}
	for _, m := range mutations {
		cfg := baseWarmCfg()
		m.mut(&cfg)
		if WarmupKey(cfg, progs, nil) == base {
			t.Errorf("%s change does not split the warmup key", m.name)
		}
	}
}

// TestWarmupKeyCanonicalForm asserts the key's canonicalization: Go map
// fields (UncachedRMW, preload) must key by content, not iteration or
// insertion order, and disabled UncachedRMW entries must not count.
func TestWarmupKeyCanonicalForm(t *testing.T) {
	progs := warmProgs()

	// Same RMW set, adversarial insertion orders, plus a disabled entry.
	addrs := []uint64{8, 64, 16, 512, 128, 0, 1024, 32}
	cfgA := baseWarmCfg()
	cfgA.UncachedRMW = map[uint64]bool{}
	for _, a := range addrs {
		cfgA.UncachedRMW[a] = true
	}
	cfgB := baseWarmCfg()
	cfgB.UncachedRMW = map[uint64]bool{2048: false} // disabled: no effect
	for i := len(addrs) - 1; i >= 0; i-- {
		cfgB.UncachedRMW[addrs[i]] = true
	}
	if WarmupKey(cfgA, progs, nil) != WarmupKey(cfgB, progs, nil) {
		t.Error("UncachedRMW key depends on insertion order or disabled entries")
	}

	// Same preload content, different insertion orders.
	preA, preB := map[uint64]int64{}, map[uint64]int64{}
	for i, a := range addrs {
		preA[a] = int64(i)
	}
	for i := len(addrs) - 1; i >= 0; i-- {
		preB[addrs[i]] = int64(i)
	}
	if WarmupKey(cfgA, progs, preA) != WarmupKey(cfgA, progs, preB) {
		t.Error("preload key depends on insertion order")
	}
	if WarmupKey(cfgA, progs, preA) == WarmupKey(cfgA, progs, nil) {
		t.Error("preload does not reach the key")
	}

	// Different programs split; identical program content agrees even
	// across distinct builds.
	again := warmProgs()
	if WarmupKey(cfgA, again, nil) != WarmupKey(cfgA, warmProgs(), nil) {
		t.Error("identical programs disagree")
	}
	other := isa.NewBuilder()
	other.StoreAbs(0, 99)
	other.Halt()
	if WarmupKey(cfgA, []*isa.Program{other.Build(), again[1]}, nil) == WarmupKey(cfgA, again, nil) {
		t.Error("different programs share a key")
	}
}

// TestWarmupKeyDeterministic is the property sweep: random preloads and
// RMW sets, built twice in independent random orders, must agree — 200
// trials of the map-canonicalization property with adversarial shapes.
func TestWarmupKeyDeterministic(t *testing.T) {
	progs := warmProgs()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		addrs := make([]uint64, n)
		vals := make([]int64, n)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(256)) * 8
			vals[i] = int64(rng.Intn(100))
		}
		build := func(order []int) (sim.Config, map[uint64]int64) {
			cfg := baseWarmCfg()
			cfg.UncachedRMW = map[uint64]bool{}
			pre := map[uint64]int64{}
			for _, i := range order {
				cfg.UncachedRMW[addrs[i]] = true
				pre[addrs[i]] = vals[i]
			}
			return cfg, pre
		}
		fwd := rng.Perm(n)
		rev := rng.Perm(n)
		// Duplicate addrs can map to different values depending on order;
		// canonicalize the expectation by last-write like the maps do.
		want := map[uint64]int64{}
		for _, i := range fwd {
			want[addrs[i]] = vals[i]
		}
		got := map[uint64]int64{}
		for _, i := range rev {
			got[addrs[i]] = vals[i]
		}
		if len(want) != len(got) {
			continue
		}
		same := true
		for a, v := range want {
			if got[a] != v {
				same = false
				break
			}
		}
		if !same {
			continue
		}
		cfgA, preA := build(fwd)
		cfgB, preB := build(rev)
		if WarmupKey(cfgA, progs, preA) != WarmupKey(cfgB, progs, preB) {
			t.Fatalf("trial %d: identical content, different keys", trial)
		}
	}
}
