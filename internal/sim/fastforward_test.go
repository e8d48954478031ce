package sim_test

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/sim"
	"mcmsim/internal/workload"
)

// The technique grid used by the paper's experiments (mirrors
// experiments.TechConv etc.; duplicated so the sim tests stay free of the
// experiments package).
var ffTechniques = []struct {
	name string
	tech core.Technique
}{
	{"conv", core.Technique{}},
	{"pf", core.Technique{Prefetch: true}},
	{"spec", core.Technique{SpecLoad: true, ReissueOpt: true}},
	{"pf+spec", core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}},
}

func mixProgs(nprocs int, seed int64) []*isa.Program {
	progs := make([]*isa.Program, nprocs)
	for p := 0; p < nprocs; p++ {
		progs[p] = workload.RandomSharing(p, nprocs, workload.EqualizationMix(seed))
	}
	return progs
}

// ffMachines are the machines of the dense differential. The unnamed one
// is the realistic 3-CPU machine; the others drive wake paths the shard
// engine never sees: a zero-latency network (parsim declines it, so only
// the sequential loop runs it, with sends delivered in the cycle they are
// made), a one-message-per-cycle directory whose ingress queue keeps its
// home node awake, and scheduled writes that land after every program
// halted, on a machine with no node awake and nothing in flight.
var ffMachines = []struct {
	name   string
	config func(*sim.Config)
	writes []sim.ScheduledWrite
}{
	{"", func(*sim.Config) {}, nil},
	{"netlat0", func(c *sim.Config) { c.NetLatency = 0 }, nil},
	{"dirbw1", func(c *sim.Config) { c.DirBandwidth = 1 }, nil},
	{"idlewrites", func(*sim.Config) {}, []sim.ScheduledWrite{
		{Cycle: 25_000, Addr: 0x4000, Value: 11},
		{Cycle: 25_000, Addr: 0x4001, Value: 12},
		{Cycle: 25_003, Addr: 0x1000, Value: 13},
		{Cycle: 26_000, Addr: 0x2000, Value: 14},
	}},
}

// TestFastForwardMatchesDense is the differential gate for the wake
// schedule: on every machine of ffMachines, for every consistency model
// under every technique, running the mixed workload on the default loop
// must produce exactly the same halt cycle, statistics report, coherent
// memory image and final clock as stepping every node every cycle
// (Config.DenseLoop). The schedule may only leave out ticks in which Step
// would change no state at all — including statistics counters — so any
// divergence here means a component's NextWake underestimated its own
// activity, or a delivery failed to wake its node.
func TestFastForwardMatchesDense(t *testing.T) {
	var skippedTotal uint64
	for _, mc := range ffMachines {
		for _, m := range core.AllModels {
			for _, tc := range ffTechniques {
				name := fmt.Sprintf("%v/%s", m, tc.name)
				if mc.name != "" {
					name = mc.name + "/" + name
				}
				t.Run(name, func(t *testing.T) {
					run := func(dense bool) (uint64, *sim.System) {
						cfg := sim.RealisticConfig()
						cfg.Procs = 3
						cfg.Model = m
						cfg.Tech = tc.tech
						cfg.DenseLoop = dense
						mc.config(&cfg)
						s := sim.New(cfg, mixProgs(3, 7))
						s.ScheduleWrites(mc.writes)
						cycles, err := s.Run()
						if err != nil {
							t.Fatalf("dense=%v: %v", dense, err)
						}
						return cycles, s
					}
					dCycles, d := run(true)
					fCycles, f := run(false)
					if d.FastForwarded != 0 {
						t.Errorf("dense run fast-forwarded %d cycles, want 0", d.FastForwarded)
					}
					if dCycles != fCycles || d.Cycle != f.Cycle {
						t.Errorf("halt/clock: dense=(%d,%d) fast-forward=(%d,%d)", dCycles, d.Cycle, fCycles, f.Cycle)
					}
					if len(mc.writes) > 0 && f.Cycle <= mc.writes[len(mc.writes)-1].Cycle {
						t.Errorf("run ended at cycle %d, before its last scheduled write", f.Cycle)
					}
					if ds, fs := d.StatsReport(), f.StatsReport(); ds != fs {
						t.Errorf("stats reports differ:\n--- dense ---\n%s--- fast-forward ---\n%s", ds, fs)
					}
					if dm, fm := d.CoherentSnapshot(), f.CoherentSnapshot(); !reflect.DeepEqual(dm, fm) {
						t.Errorf("coherent memory images differ: dense=%v fast-forward=%v", dm, fm)
					}
					skippedTotal += f.FastForwarded
				})
			}
		}
	}
	// The grid includes long-latency misses under the conventional
	// technique, where nearly every cycle is an idle wait; if nothing was
	// ever skipped the scheduler is not actually engaging.
	if skippedTotal == 0 {
		t.Error("fast-forward skipped 0 cycles across the whole model x technique grid")
	}
}

// TestFastForwardSkipsStallCycles pins that the scheduler actually jumps
// on the configuration it was built for: conventional SC waiting out a
// long miss, where the machine is provably inert for hundreds of cycles.
func TestFastForwardSkipsStallCycles(t *testing.T) {
	cfg := sim.RealisticConfig().WithMissLatency(400)
	cfg.Procs = 3
	cfg.Model = core.SC
	s := sim.New(cfg, mixProgs(3, 7))
	cycles, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.FastForwarded == 0 {
		t.Fatal("conventional SC at miss=400 fast-forwarded 0 cycles")
	}
	// Most of the run is miss stall; the scheduler should reclaim the bulk
	// of it (conservatively: over half of all simulated cycles).
	if 2*s.FastForwarded < cycles {
		t.Errorf("fast-forwarded only %d of %d cycles; expected the majority", s.FastForwarded, cycles)
	}
}

// TestStepZeroAllocSteadyState asserts the zero-allocation hot path: once
// a simulation reaches steady state (here: deep inside a 400-cycle miss
// window, after fetch and issue have settled), a dense Step() must not
// touch the heap at all. Any regression — a per-cycle map, a re-grown
// scratch slice, a message allocated instead of pooled — shows up as a
// nonzero allocation count.
func TestStepZeroAllocSteadyState(t *testing.T) {
	cfg := sim.PaperConfig().WithMissLatency(400)
	cfg.DenseLoop = true
	s := sim.New(cfg, []*isa.Program{workload.Example1()})
	// Step past fetch/decode and the first access issue so every
	// lazily-grown structure (ROB, scratch slices, message pool) is warm.
	for i := 0; i < 50; i++ {
		s.Step()
	}
	if s.Done() {
		t.Fatal("workload finished before steady state; miss latency not in effect?")
	}
	if allocs := testing.AllocsPerRun(100, s.Step); allocs != 0 {
		t.Errorf("steady-state Step() allocates %.1f objects/cycle, want 0", allocs)
	}
	// The wake-scheduled loop on the same machine: every RunUntil entry
	// recomputes every node's wake and jumps to the target, without
	// allocating.
	s.Cfg.DenseLoop = false
	runOne := func() {
		if _, err := s.RunUntil(s.Cycle + 1); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, runOne); allocs != 0 {
		t.Errorf("steady-state RunUntil(Cycle+1) allocates %.1f objects/call, want 0", allocs)
	}
	// Past the miss, instructions flow again and the caches and directory
	// allocate for first touches (TestStepZeroAllocFlowing covers the flow
	// once those are warm), but the loop itself must add nothing: running
	// the rest of the program allocates exactly what Step does on a dense
	// twin at the same cycle.
	twin := sim.New(cfg, []*isa.Program{workload.Example1()})
	for twin.Cycle < s.Cycle {
		twin.Step()
	}
	// Both windows count process-wide mallocs, so each runs on one P (as
	// testing.AllocsPerRun does), after a collection and with the
	// collector off: no runtime allocation, such as a GC worker starting,
	// can land inside one window only.
	mallocs := func(run func() (uint64, error)) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	if dense, wake := mallocs(twin.Run), mallocs(s.Run); wake != dense {
		t.Errorf("finishing the run allocates %d objects on the wake schedule, %d under Step", wake, dense)
	}
}

// TestStepZeroAllocFlowing asserts that instruction flow itself allocates
// nothing: on the realistic pipeline running the barrier workload's long
// private phase, once every private line is cached, cycles retire about
// two instructions each, and reorder-buffer entries, load/store-unit
// entries, speculative-load-buffer rows, latency histograms and counters
// must all come from storage the machine already has.
func TestStepZeroAllocFlowing(t *testing.T) {
	for _, tc := range ffTechniques {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sim.RealisticConfig()
			cfg.Procs = 4
			cfg.Model = core.RC
			cfg.Tech = tc.tech
			cfg.DenseLoop = true
			progs := make([]*isa.Program, cfg.Procs)
			for p := range progs {
				progs[p] = workload.BarrierPhases(p, cfg.Procs, 1, 4096)
			}
			s := sim.New(cfg, progs)
			// Warm up past the first sweep over the 512 private words.
			for i := 0; i < 12000; i++ {
				s.Step()
			}
			retired := func() uint64 { return s.Procs[0].Stats.Counter("retired").Value() }
			before := retired()
			if allocs := testing.AllocsPerRun(500, s.Step); allocs != 0 {
				t.Errorf("flowing Step() allocates %.1f objects/cycle, want 0", allocs)
			}
			s.Cfg.DenseLoop = false
			runOne := func() {
				if _, err := s.RunUntil(s.Cycle + 1); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(500, runOne); allocs != 0 {
				t.Errorf("flowing RunUntil(Cycle+1) allocates %.1f objects/call, want 0", allocs)
			}
			if s.Done() {
				t.Fatal("workload finished inside the measured window")
			}
			if got := retired() - before; got < 1000 {
				t.Errorf("cpu0 retired %d instructions over 1002 measured cycles; the window must be flowing", got)
			}
		})
	}
}

// TestHeapFlatOverLongRun pins that memory stays bounded as a run gets
// longer: on the flowing private phase of TestStepZeroAllocFlowing, made
// long enough to last 10·N cycles, the heap in use after a collection at
// cycle 10·N must equal the heap at cycle N within a fixed slack. By then
// about 140 000 more instructions have retired per processor, so even a
// byte kept per instruction, a pool that leaks entries or an operand list
// that grows with the run would show tenfold over the slack.
func TestHeapFlatOverLongRun(t *testing.T) {
	const n, slack = 8000, 16 << 10
	cfg := sim.RealisticConfig()
	cfg.Procs = 4
	cfg.Model = core.RC
	cfg.Tech = core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}
	progs := make([]*isa.Program, cfg.Procs)
	for p := range progs {
		progs[p] = workload.BarrierPhases(p, cfg.Procs, 1, 40960)
	}
	s := sim.New(cfg, progs)
	heapAt := func(cycle uint64) uint64 {
		if done, err := s.RunUntil(cycle); err != nil || done {
			t.Fatalf("run to cycle %d: done=%v, err=%v", cycle, done, err)
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		runtime.KeepAlive(s) // the machine is what is measured
		return m.HeapAlloc
	}
	at1, at10 := heapAt(n), heapAt(10*n)
	if at10 > at1+slack {
		t.Errorf("heap in use grew from %d bytes at cycle %d to %d at cycle %d, more than the %d-byte slack", at1, n, at10, 10*n, slack)
	}
}

// benchmarkE2Row runs the E2 latency-sweep row at its most expensive point
// (miss=400): both models of interest under conventional and combined
// techniques, exactly as `sweep -exp latency` enumerates them. ns/op is
// the wall time of the whole row; "simcycles/s" is aggregate simulated
// throughput. Comparing the Dense and FastForward variants measures what
// the idle-cycle scheduler reclaims.
func benchmarkE2Row(b *testing.B, dense bool) {
	progs := mixProgs(3, 7)
	var total uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total = 0
		for _, m := range []core.Model{core.SC, core.RC} {
			for _, tc := range []core.Technique{
				{},
				{Prefetch: true, SpecLoad: true, ReissueOpt: true},
			} {
				cfg := sim.RealisticConfig().WithMissLatency(400)
				cfg.Procs = 3
				cfg.Model = m
				cfg.Tech = tc
				cfg.DenseLoop = dense
				s := sim.New(cfg, progs)
				cycles, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				total += cycles
			}
		}
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "simcycles/s")
}

func BenchmarkStepDense(b *testing.B)       { benchmarkE2Row(b, true) }
func BenchmarkStepFastForward(b *testing.B) { benchmarkE2Row(b, false) }
