package parsim_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/parsim"
	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
	"mcmsim/internal/workload"
)

// The tests drive parsim.Run directly, or through parsim.Drive handed to
// runner.Run as the pool's drive. Run starts one goroutine per worker up
// to the shard count, whatever the host's CPU count, so every worker
// count below is exercised as written.
//
// Every differential case runs on its machine and on that machine's
// low-lookahead twin (lowLookahead), whose 8-cycle windows are the
// shortest the engine runs: a barrier every 8 cycles, with sends landing
// in the very next window. Where a case has two tests, the
// TestParallelEngineOptimistic* one is the twin.

var techniques = []struct {
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

// twinLookahead is the twins' network lookahead: the shortest the engine
// windows rather than declines.
const twinLookahead = 8

// lowLookahead returns cfg's low-lookahead twin: 8-cycle hops on a mesh,
// an 8-cycle uniform network otherwise.
func lowLookahead(cfg sim.Config) sim.Config {
	if cfg.Topo != "" && cfg.Topo != "uniform" {
		cfg.HopLatency = twinLookahead
	} else {
		cfg.NetLatency = twinLookahead
	}
	return cfg
}

type runResult struct {
	cycles   uint64
	endCycle uint64
	stats    string
	mem      map[uint64]int64
}

// runSeq runs cfg sequentially; runPar runs it through the parallel engine
// and fails the test if the engine declined the configuration.
func runSeq(t testing.TB, cfg sim.Config, progs []*isa.Program) runResult {
	t.Helper()
	s := sim.New(cfg, progs)
	cycles, err := s.Run()
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	return observe(s, cycles)
}

func runPar(t testing.TB, cfg sim.Config, progs []*isa.Program, par int) runResult {
	t.Helper()
	s := sim.New(cfg, progs)
	cycles, handled, err := parsim.Run(s, par)
	if !handled {
		t.Fatalf("parallel engine declined par=%d: %s", par, parsim.DeclineReason(s, par))
	}
	if err != nil {
		t.Fatalf("parallel run par=%d: %v", par, err)
	}
	return observe(s, cycles)
}

// observe captures a finished run's observables.
func observe(s *sim.System, cycles uint64) runResult {
	return runResult{cycles, s.Cycle, s.StatsReport(), s.CoherentSnapshot()}
}

func diffResults(t *testing.T, label string, seq, par runResult) {
	t.Helper()
	if seq.cycles != par.cycles {
		t.Errorf("%s: halt cycle seq=%d par=%d", label, seq.cycles, par.cycles)
	}
	if seq.endCycle != par.endCycle {
		t.Errorf("%s: final clock seq=%d par=%d", label, seq.endCycle, par.endCycle)
	}
	if seq.stats != par.stats {
		t.Errorf("%s: stats reports differ:\n--- sequential ---\n%s--- parallel ---\n%s", label, seq.stats, par.stats)
	}
	if !reflect.DeepEqual(seq.mem, par.mem) {
		t.Errorf("%s: coherent memory images differ: seq=%v par=%v", label, seq.mem, par.mem)
	}
}

// gridDiff is the differential gate across the model × technique grid:
// the sharded run must reproduce the sequential run exactly — halt cycle,
// final clock value, every stats counter, and the coherent memory image —
// for every worker count. The shard engine ignores Config.DenseLoop, so
// the dense rows hold it to the dense sequential reference.
func gridDiff(t *testing.T, twin bool) {
	for _, m := range core.AllModels {
		for _, tc := range techniques {
			for _, dense := range []bool{false, true} {
				mode := "ff"
				if dense {
					mode = "dense"
				}
				t.Run(fmt.Sprintf("%v/%s/%s", m, tc.name, mode), func(t *testing.T) {
					cfg := sim.RealisticConfig()
					cfg.Procs = 3
					cfg.Model = m
					cfg.Tech = tc.tech
					cfg.DenseLoop = dense
					if twin {
						cfg = lowLookahead(cfg)
					}
					progs := mixProgs(3, 7)
					seq := runSeq(t, cfg, progs)
					for _, par := range []int{2, 4, 8} {
						diffResults(t, fmt.Sprintf("par=%d", par), seq, runPar(t, cfg, progs, par))
					}
				})
			}
		}
	}
}

func TestParallelEngineMatchesSequential(t *testing.T) { gridDiff(t, false) }

func TestParallelEngineOptimisticMatchesSequential(t *testing.T) { gridDiff(t, true) }

// TestParallelEngineDistributedMemory exercises the multi-home/banked
// memory and bounded-directory-bandwidth paths (the E12 configuration
// shape), where several directory shards serve interleaved lines.
func TestParallelEngineDistributedMemory(t *testing.T) {
	for _, mods := range []int{2, 4} {
		for _, bw := range []int{0, 1} {
			t.Run(fmt.Sprintf("modules=%d/bw=%d", mods, bw), func(t *testing.T) {
				cfg := sim.RealisticConfig().WithMissLatency(100)
				cfg.Procs = 4
				cfg.Model = core.RC
				cfg.Tech = core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}
				cfg.MemModules = mods
				cfg.DirBandwidth = bw
				progs := mixProgs(4, 11)
				seq := runSeq(t, cfg, progs)
				for _, par := range []int{2, 8} {
					diffResults(t, fmt.Sprintf("par=%d", par), seq, runPar(t, cfg, progs, par))
				}
			})
		}
	}
}

// scheduledWritesDiff covers the external-write agent shard: writes
// performed at fixed cycles must land identically. The first input mixes
// writes into a racy workload, including a backlog before the first cycle
// the machine is busy. The second runs a short barrier program and then a
// trickle of writes long past its halt, where a pending write is the
// agent node's wake, not a queued delivery.
func scheduledWritesDiff(t *testing.T, twin bool) {
	mix := sim.RealisticConfig()
	mix.Procs = 2
	mix.Model = core.SC
	barrier := sim.RealisticConfig()
	barrier.Procs = 2
	barrier.Model = core.RC
	barrier.Tech = core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}
	barrierProgs := make([]*isa.Program, 2)
	for p := range barrierProgs {
		barrierProgs[p] = workload.BarrierPhases(p, 2, 3, 4)
	}
	// Each processor's first private word and its checksum word.
	var trickle []sim.ScheduledWrite
	targets := []uint64{0x10000, workload.PhaseSumBase, 0x11000, workload.PhaseSumBase + 1}
	for c := uint64(300); c <= 60_000; c += 997 {
		trickle = append(trickle, sim.ScheduledWrite{Cycle: c, Addr: targets[len(trickle)%len(targets)], Value: int64(c)})
	}
	inputs := []struct {
		name   string
		cfg    sim.Config
		progs  []*isa.Program
		writes []sim.ScheduledWrite
	}{
		{"mix", mix, mixProgs(2, 3), []sim.ScheduledWrite{
			{Cycle: 0, Addr: 64, Value: 7},
			{Cycle: 10, Addr: 4, Value: 9},
			{Cycle: 500, Addr: 8, Value: -2},
			{Cycle: 501, Addr: 64, Value: 5},
		}},
		{"barrier-trickle", barrier, barrierProgs, trickle},
	}
	for _, in := range inputs {
		cfg := in.cfg
		if twin {
			cfg = lowLookahead(cfg)
		}
		runOne := func(par int) runResult {
			s := sim.New(cfg, in.progs)
			s.ScheduleWrites(in.writes)
			if par <= 1 {
				cycles, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				return observe(s, cycles)
			}
			cycles, handled, err := parsim.Run(s, par)
			if !handled || err != nil {
				t.Fatalf("%s par=%d handled=%v err=%v", in.name, par, handled, err)
			}
			return observe(s, cycles)
		}
		seq := runOne(1)
		for _, par := range []int{2, 4} {
			diffResults(t, fmt.Sprintf("%s par=%d", in.name, par), seq, runOne(par))
		}
	}
}

func TestParallelEngineScheduledWrites(t *testing.T) { scheduledWritesDiff(t, false) }

func TestParallelEngineOptimisticScheduledWrites(t *testing.T) { scheduledWritesDiff(t, true) }

// TestParallelEngineNSTBypass covers the Stenstrom NST comparator, whose
// cacheless accesses flow through the directory's MemRead/MemWrite path.
func TestParallelEngineNSTBypass(t *testing.T) {
	cfg := sim.RealisticConfig()
	cfg.Procs = 3
	cfg.Model = core.SC
	cfg.NST = true
	progs := mixProgs(3, 5)
	seq := runSeq(t, cfg, progs)
	diffResults(t, "par=4", seq, runPar(t, cfg, progs, 4))
}

// errorParity pins the non-convergence path: with a cycle budget too small
// to finish, the parallel engine must fail at the same cycle with the same
// error text (including the machine dump) as the sequential loop. The
// barrier workload's budget runs out amid its quiet compute phases.
func errorParity(t *testing.T, twin bool) {
	cfg := sim.RealisticConfig().WithMissLatency(100)
	cfg.Procs = 3
	cfg.Model = core.SC
	cfg.MaxCycles = 300 // far too few for these workloads
	if twin {
		cfg = lowLookahead(cfg)
	}
	for _, progs := range [][]*isa.Program{mixProgs(3, 7), barrierProgs(3, 2, 64)} {
		s1 := sim.New(cfg, progs)
		_, err1 := s1.Run()
		if err1 == nil {
			t.Fatal("sequential run converged; budget not small enough for the test")
		}
		for _, par := range []int{2, 8} {
			s2 := sim.New(cfg, progs)
			_, handled, err2 := parsim.Run(s2, par)
			if !handled {
				t.Fatalf("engine declined par=%d", par)
			}
			if err2 == nil {
				t.Fatalf("par=%d converged where sequential errored", par)
			}
			if err1.Error() != err2.Error() {
				t.Errorf("par=%d error differs:\n--- sequential ---\n%s\n--- parallel ---\n%s", par, err1, err2)
			}
			if s1.Cycle != s2.Cycle {
				t.Errorf("par=%d error cycle seq=%d par=%d", par, s1.Cycle, s2.Cycle)
			}
		}
	}
}

func TestParallelEngineErrorParity(t *testing.T) { errorParity(t, false) }

func TestParallelEngineOptimisticErrorParity(t *testing.T) { errorParity(t, true) }

// TestParallelEngineWarmupChaining pins the LoadPrograms phase-chaining
// pattern (warm caches, then measure): a parallel warmup phase must leave
// the machine — clock included — in a state from which the second phase
// reproduces the sequential timings exactly, and vice versa, on the
// machine and its low-lookahead twin.
func TestParallelEngineWarmupChaining(t *testing.T) {
	base := sim.RealisticConfig()
	base.Procs = 2
	base.Model = core.WC
	warm := mixProgs(2, 19)
	measure := mixProgs(2, 23)

	for _, cfg := range []sim.Config{base, lowLookahead(base)} {
		t.Run(fmt.Sprintf("w=%d", cfg.NetLatency), func(t *testing.T) {
			run := func(warmPar, measurePar int) runResult {
				s := sim.New(cfg, warm)
				phase := func(par int) uint64 {
					if par <= 1 {
						c, err := s.Run()
						if err != nil {
							t.Fatal(err)
						}
						return c
					}
					c, handled, err := parsim.Run(s, par)
					if !handled || err != nil {
						t.Fatalf("par=%d handled=%v err=%v", par, handled, err)
					}
					return c
				}
				phase(warmPar)
				s.LoadPrograms(measure)
				cycles := phase(measurePar)
				return observe(s, cycles)
			}

			seq := run(1, 1)
			diffResults(t, "par-warm/seq-measure", seq, run(4, 1))
			diffResults(t, "seq-warm/par-measure", seq, run(1, 4))
			diffResults(t, "par-warm/par-measure", seq, run(4, 4))
		})
	}
}

// TestParallelEngineMidFlight pins that the engine accepts a machine with
// deliveries already in flight (stopped mid-run, as a mid-flight snapshot
// restores it), on the machine and its low-lookahead twin: the exchange
// absorbs the queued messages into the shard inboxes, and the run must
// finish byte-identically to the sequential continuation.
func TestParallelEngineMidFlight(t *testing.T) {
	base := sim.RealisticConfig().WithMissLatency(100)
	base.Procs = 4
	base.Model = core.RC
	base.Tech = core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}
	progs := mixProgs(4, 11)

	for _, cfg := range []sim.Config{base, lowLookahead(base)} {
		t.Run(fmt.Sprintf("w=%d", cfg.NetLatency), func(t *testing.T) {
			inFlight := 0
			finish := func(stop uint64, par int) runResult {
				s := sim.New(cfg, progs)
				done, err := s.RunUntil(stop)
				if err != nil {
					t.Fatal(err)
				}
				if done {
					t.Fatalf("machine finished before cycle %d; pick an earlier stop", stop)
				}
				if par <= 1 {
					if _, err := s.Run(); err != nil {
						t.Fatal(err)
					}
					return observe(s, s.HaltCycle()-s.BaseCycle())
				}
				inFlight += s.Net.Pending()
				_, handled, err := parsim.Run(s, par)
				if !handled || err != nil {
					t.Fatalf("par=%d handled=%v err=%v", par, handled, err)
				}
				return observe(s, s.HaltCycle()-s.BaseCycle())
			}

			end := runSeq(t, cfg, progs).endCycle
			for _, stop := range []uint64{40, end / 3, end / 2} {
				seq := finish(stop, 1)
				for _, par := range []int{2, 4} {
					diffResults(t, fmt.Sprintf("stop=%d/par=%d", stop, par), seq, finish(stop, par))
				}
			}
			if inFlight == 0 {
				t.Error("no stop left deliveries in flight; the absorb path went untested")
			}
		})
	}
}

// declines pins each fallback reason: configurations the engine cannot
// window are declined with DeclineReason's explanation (System.Run then
// transparently uses the sequential loop), and a declined run leaves
// ParReport empty. The twin's accepted machine has the shortest lookahead
// the engine windows, so it also pins every shorter one: lookaheads 1–7,
// on the uniform network and on a mesh, decline as too short, and Drive
// there runs the sequential loop byte for byte.
func declines(t *testing.T, twin bool) {
	cfg := sim.RealisticConfig()
	cfg.Procs = 2
	if twin {
		cfg = lowLookahead(cfg)
	}
	progs := mixProgs(2, 7)
	zero := cfg
	zero.NetLatency = 0
	traced := sim.New(cfg, progs)
	traced.TraceHooks = append(traced.TraceHooks, func(*sim.System, uint64) {})

	for _, c := range []struct {
		name string
		s    *sim.System
		par  int
		want string
	}{
		{"one worker", sim.New(cfg, progs), 1, "at least 2 workers"},
		{"zero lookahead", sim.New(zero, progs), 4, "zero network lookahead"},
		{"trace hooks", traced, 4, "trace hooks"},
		{"accepted", sim.New(cfg, progs), 4, ""},
	} {
		got := parsim.DeclineReason(c.s, c.par)
		if (got == "") != (c.want == "") || !strings.Contains(got, c.want) {
			t.Errorf("%s: DeclineReason = %q, want it to mention %q", c.name, got, c.want)
		}
		if c.want == "" {
			continue
		}
		if _, handled, _ := parsim.Run(c.s, c.par); handled {
			t.Errorf("%s: engine accepted the configuration", c.name)
		}
		if c.s.ParReport != "" {
			t.Errorf("%s: declined run left a ParReport:\n%s", c.name, c.s.ParReport)
		}
	}
	if !twin {
		return
	}
	mesh := sim.RealisticConfig()
	mesh.Procs = 4
	mesh.Model = core.RC
	mesh.Topo = "mesh"
	meshProgs := barrierProgs(4, 2, 16)
	for w := uint64(1); w < twinLookahead; w++ {
		short, shortMesh := cfg, mesh
		short.NetLatency = w
		shortMesh.HopLatency = w
		for _, c := range []struct {
			name  string
			cfg   sim.Config
			progs []*isa.Program
		}{
			{fmt.Sprintf("uniform/w=%d", w), short, progs},
			{fmt.Sprintf("mesh/w=%d", w), shortMesh, meshProgs},
		} {
			s := sim.New(c.cfg, c.progs)
			want := fmt.Sprintf("network lookahead %d below %d cycles", w, twinLookahead)
			if got := parsim.DeclineReason(s, 4); !strings.Contains(got, want) {
				t.Errorf("%s: DeclineReason = %q, want it to mention %q", c.name, got, want)
			}
			cycles, err := parsim.Drive(s, 4)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if s.ParReport != "" {
				t.Errorf("%s: declined run left a ParReport:\n%s", c.name, s.ParReport)
			}
			diffResults(t, c.name, runSeq(t, c.cfg, c.progs), observe(s, cycles))
		}
	}
}

func TestParallelEngineDeclines(t *testing.T) { declines(t, false) }

func TestParallelEngineOptimisticDeclines(t *testing.T) { declines(t, true) }

// runViaPool runs cfg as a one-job runner.Run pool whose Options.Drive
// shards it on par workers — the seam the suite differentials drive
// through — and returns the driven machine with its halt cycle.
func runViaPool(t *testing.T, cfg sim.Config, progs []*isa.Program, par int) (*sim.System, uint64) {
	t.Helper()
	var s *sim.System
	job := runner.Job{
		Name: "via-pool",
		Configure: func() (*sim.System, error) {
			s = sim.New(cfg, progs)
			return s, nil
		},
		Measure: func(_ *sim.System, cycles uint64) (runner.Row, error) { return runner.Row{Cycles: cycles}, nil },
	}
	drive := func(s *sim.System) (uint64, error) { return parsim.Drive(s, par) }
	res := runner.Run([]runner.Job{job}, runner.Options{Workers: 1, Drive: drive})[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return s, res.Row.Cycles
}

// TestParallelEngineViaRunKnob exercises the pool entry point: a runner
// pool whose Options.Drive is parsim.Drive, including the fallback path
// staying invisible.
func TestParallelEngineViaRunKnob(t *testing.T) {
	t.Parallel()
	cfg := sim.RealisticConfig()
	cfg.Procs = 3
	cfg.Model = core.PC
	cfg.Tech = core.Technique{Prefetch: true}
	progs := mixProgs(3, 7)
	seq := runSeq(t, cfg, progs)

	s, cycles := runViaPool(t, cfg, progs, 4)
	diffResults(t, "Drive par=4", seq, observe(s, cycles))
	if !strings.Contains(s.ParReport, "parsim: shards=5") {
		t.Errorf("unexpected ParReport header:\n%s", s.ParReport)
	}
}

// TestParallelEngineOptimisticViaRunKnob routes the pool's sharded drive
// onto the barrier machine at 8-cycle hops, the shortest lookahead the
// engine windows: quiet compute phases cut into 8-cycle windows, and the
// engine, not the fallback, must have run it.
func TestParallelEngineOptimisticViaRunKnob(t *testing.T) {
	t.Parallel()
	cfg := meshConfig(core.RC, core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true})
	cfg.Procs = 4
	cfg.HopLatency = twinLookahead
	progs := barrierProgs(4, 2, 64)
	seq := runSeq(t, cfg, progs)

	s, cycles := runViaPool(t, cfg, progs, 4)
	diffResults(t, "Drive par=4", seq, observe(s, cycles))
	if want := fmt.Sprintf("window=%d ", twinLookahead); !strings.Contains(s.ParReport, want) {
		t.Errorf("ParReport does not show the engine windowing at %q:\n%s", want, s.ParReport)
	}
}

// TestParallelEngineSchedStats sanity-checks the scheduler-observability
// counters: a real run must execute windows, step cycles on several shards,
// and exchange messages.
func TestParallelEngineSchedStats(t *testing.T) {
	cfg := sim.RealisticConfig().WithMissLatency(400)
	cfg.Procs = 3
	cfg.Model = core.SC
	s := sim.New(cfg, mixProgs(3, 7))
	if _, handled, err := parsim.Run(s, 4); !handled || err != nil {
		t.Fatalf("handled=%v err=%v", handled, err)
	}
	rep := s.ParReport
	for _, want := range []string{"windows=", "exchanged=", "proc0", "proc2", "home0", "agent"} {
		if !strings.Contains(rep, want) {
			t.Errorf("ParReport missing %q:\n%s", want, rep)
		}
	}
	if strings.Contains(rep, "exchanged=0 ") {
		t.Errorf("no messages exchanged at the barriers:\n%s", rep)
	}
}
