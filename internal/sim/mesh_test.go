package sim_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/sim"
	"mcmsim/internal/workload"
)

func wideProgs(nprocs, lines, rounds int) []*isa.Program {
	progs := make([]*isa.Program, nprocs)
	for p := 0; p < nprocs; p++ {
		progs[p] = workload.WideSharing(p, nprocs, lines, rounds)
	}
	return progs
}

func meshConfig(procs int) sim.Config {
	cfg := sim.RealisticConfig()
	cfg.Procs = procs
	cfg.Topo = "mesh"
	cfg.MemModules = procs
	cfg.DirPointers = 8
	return cfg
}

// TestMeshMachineRuns drives a 16-CPU mesh with the wide-sharing workload
// end to end: it must converge, count mesh traffic, and normalize the
// topology spec.
func TestMeshMachineRuns(t *testing.T) {
	cfg := meshConfig(16)
	s := sim.New(cfg, wideProgs(16, 4, 4))
	cycles, err := s.Run()
	if err != nil {
		t.Fatalf("mesh run: %v", err)
	}
	if cycles == 0 {
		t.Fatal("mesh run reported 0 cycles")
	}
	if s.Cfg.Topo != "mesh:4x4" {
		t.Errorf("topology not normalized: %q", s.Cfg.Topo)
	}
	report := s.StatsReport()
	if !strings.Contains(report, "network.hops = ") || !strings.Contains(report, "network.link_waits = ") {
		t.Errorf("mesh report missing traffic rows:\n%s", report)
	}
}

// TestMeshDims pins the topology spec grammar: "mesh" auto-sizes to the
// squarest grid covering the CPUs, "mesh:WxH" is explicit, and Resolve
// names the grid it resolved to.
func TestMeshDims(t *testing.T) {
	cases := []struct {
		spec  string
		procs int
		want  string
	}{
		{"mesh", 16, "mesh:4x4"},
		{"mesh", 64, "mesh:8x8"},
		{"mesh", 256, "mesh:16x16"},
		{"mesh", 5, "mesh:3x2"},
		{"mesh", 1, "mesh:1x1"},
		{"mesh:2x8", 16, "mesh:2x8"},
	}
	for _, c := range cases {
		cfg, err := sim.Config{Procs: c.procs, Topo: c.spec}.Resolve()
		if err != nil || cfg.Topo != c.want {
			t.Errorf("Resolve(%q, %d CPUs) = %q, %v; want %q", c.spec, c.procs, cfg.Topo, err, c.want)
		}
	}
	for _, bad := range []string{"mesh:0x4", "mesh:4", "mesh:axb", "torus"} {
		if _, err := (sim.Config{Procs: 4, Topo: bad}).Resolve(); err == nil {
			t.Errorf("Resolve accepted topology %q", bad)
		}
	}
}

// TestFastForwardMeshMatchesDense is the mesh extension of the dense
// differential: the wake schedule must change nothing on a machine with
// variable hop latency and link contention. The last machine is E16's
// 64-CPU SC/pf row (experiments.ScaleSweepJobs), where nearly every node
// sits stalled on a miss at any moment; there the schedule must also
// actually leave the sleeping nodes alone, ticking at most a tenth of the
// nodes per stepped cycle (the measured busy ratio is about 0.03), so a
// silent fallback to ticking everything fails here.
func TestFastForwardMeshMatchesDense(t *testing.T) {
	pfSpec := core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}
	for _, tc := range []struct {
		name                 string
		procs, lines, rounds int
		model                core.Model
		tech                 core.Technique
		maxBusyRatioPercent  uint64 // 0: not checked
	}{
		{"SC", 9, 3, 3, core.SC, pfSpec, 0},
		{"RC", 9, 3, 3, core.RC, pfSpec, 0},
		{"E16-64/SC/pf", 64, 4, 2, core.SC, core.Technique{Prefetch: true}, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := meshConfig(tc.procs)
			cfg.Model = tc.model
			cfg.Tech = tc.tech
			progs := wideProgs(tc.procs, tc.lines, tc.rounds)

			dense := cfg
			dense.DenseLoop = true
			sd := sim.New(dense, progs)
			cd, err := sd.Run()
			if err != nil {
				t.Fatalf("dense: %v", err)
			}
			sf := sim.New(cfg, progs)
			cf, err := sf.Run()
			if err != nil {
				t.Fatalf("fast-forward: %v", err)
			}
			if cd != cf || sd.Cycle != sf.Cycle {
				t.Errorf("halt/clock differ: dense=(%d,%d) ff=(%d,%d)", cd, sd.Cycle, cf, sf.Cycle)
			}
			if sd.StatsReport() != sf.StatsReport() {
				t.Errorf("stats reports differ:\n--- dense ---\n%s--- ff ---\n%s", sd.StatsReport(), sf.StatsReport())
			}
			if !reflect.DeepEqual(sd.CoherentSnapshot(), sf.CoherentSnapshot()) {
				t.Error("coherent memory images differ")
			}
			if tc.maxBusyRatioPercent > 0 {
				nodes := uint64(len(sf.Procs) + len(sf.Dirs))
				stepped := sf.Cycle - sf.FastForwarded
				if 100*sf.NodeTicks > tc.maxBusyRatioPercent*nodes*stepped {
					t.Errorf("%d node ticks over %d stepped cycles of %d nodes: busy ratio %.3f, want <= %d%%",
						sf.NodeTicks, stepped, nodes, float64(sf.NodeTicks)/float64(nodes*stepped), tc.maxBusyRatioPercent)
				}
			}
		})
	}
}

// TestSnapshotMeshRoundTrip saves a quiescent mesh machine — link
// contention clocks, coarse directory vectors and all — and checks the
// restored machine continues byte-identically.
func TestSnapshotMeshRoundTrip(t *testing.T) {
	cfg := meshConfig(16)
	cfg.DirPointers = 2 // force coarse-vector lines into the snapshot
	progs := wideProgs(16, 4, 2)

	warm := sim.New(cfg, progs)
	if _, err := warm.Run(); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	snap, err := warm.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	// Continue the original and a restored copy with a second phase.
	phase2 := wideProgs(16, 4, 2)
	warm.LoadPrograms(phase2)
	c1, err := warm.Run()
	if err != nil {
		t.Fatalf("original phase 2: %v", err)
	}

	restored, err := sim.Restore(snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	restored.LoadPrograms(phase2)
	c2, err := restored.Run()
	if err != nil {
		t.Fatalf("restored phase 2: %v", err)
	}
	if c1 != c2 || warm.Cycle != restored.Cycle {
		t.Errorf("restored continuation diverged: (%d,%d) vs (%d,%d)", c1, warm.Cycle, c2, restored.Cycle)
	}
	if warm.StatsReport() != restored.StatsReport() {
		t.Errorf("stats reports differ after restore:\n--- original ---\n%s--- restored ---\n%s",
			warm.StatsReport(), restored.StatsReport())
	}
	if !reflect.DeepEqual(warm.CoherentSnapshot(), restored.CoherentSnapshot()) {
		t.Error("coherent memory images differ after restore")
	}
}

// TestLimitedPointerMatchesFullBitVector is the exact-equivalence gate: on
// a machine whose sharer sets fit the pointer capacity, limited-pointer
// tracking must be byte-identical to full tracking — same halt cycle, same
// stats report, same memory image — because it only changes representation.
func TestLimitedPointerMatchesFullBitVector(t *testing.T) {
	for _, procs := range []int{4, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			cfg := sim.RealisticConfig()
			cfg.Procs = procs
			cfg.Tech = core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}
			progs := wideProgs(procs, 4, 3)

			full := cfg // DirPointers 0: unbounded exact
			sf := sim.New(full, progs)
			cf, err := sf.Run()
			if err != nil {
				t.Fatalf("full: %v", err)
			}

			ltd := cfg
			ltd.DirPointers = procs // capacity covers every possible sharer set
			sl := sim.New(ltd, progs)
			cl, err := sl.Run()
			if err != nil {
				t.Fatalf("limited: %v", err)
			}

			if cf != cl {
				t.Errorf("halt cycles differ: full=%d limited=%d", cf, cl)
			}
			if sf.StatsReport() != sl.StatsReport() {
				t.Errorf("stats reports differ:\n--- full ---\n%s--- limited ---\n%s", sf.StatsReport(), sl.StatsReport())
			}
			if !reflect.DeepEqual(sf.CoherentSnapshot(), sl.CoherentSnapshot()) {
				t.Error("memory images differ")
			}
		})
	}
}

// TestCoarseVectorOverflowCorrect forces limited-pointer overflow (2
// pointers, 8 CPUs, everyone spinning on one lock line) and checks the
// protocol still computes the right answer: coarse mode may
// over-invalidate (performance) but never corrupts coherence
// (correctness). The lock-protected counter is timing-independent ground
// truth, so it must be exact even though coarse timing differs from full
// tracking.
func TestCoarseVectorOverflowCorrect(t *testing.T) {
	const procs, rounds, updates = 8, 3, 2
	cfg := sim.RealisticConfig()
	cfg.Procs = procs
	cfg.DirPointers = 2
	progs := make([]*isa.Program, procs)
	for p := range progs {
		progs[p] = workload.CriticalSection(p, procs, rounds, updates, 1)
	}
	s := sim.New(cfg, progs)
	if _, err := s.Run(); err != nil {
		t.Fatalf("coarse run: %v", err)
	}
	if got, want := s.ReadCoherent(workload.CounterAddr(0)), int64(procs*rounds*updates); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	report := s.StatsReport()
	if !strings.Contains(report, "coarse_inv_sweeps") {
		t.Errorf("overflow never reached coarse mode:\n%s", report)
	}
}
