// Command mcsim runs one simulated multiprocessor configuration on a chosen
// workload and prints the cycle count plus component statistics. It is the
// general entry point for exploring the simulator; cmd/paperfigs and
// cmd/sweep drive the paper's specific experiments.
//
// Examples:
//
//	mcsim -workload example1 -model SC
//	mcsim -workload example2 -model RC -prefetch -spec
//	mcsim -workload critical -procs 4 -model WC -prefetch -stats
//	mcsim -workload mix -procs 3 -model SC -spec -prefetch -miss 200
//	mcsim -workload wide -cpus 64 -topo mesh -model RC -prefetch -spec -stats
//
// A warmed machine can be saved once and measured many times: -save-state
// snapshots the machine right after the workload's warmup phase (or after
// the run, for workloads without one), and -load-state restores it and runs
// only the measured phase. The restored run is byte-identical to the
// corresponding cold run; -cpuprofile covers only the measured phase, so a
// profile taken with -load-state excludes warmup entirely. Model and
// technique flags still apply on load — structural flags (-miss, -modules,
// -dirbw, -update, -nst, -realistic) are pinned by the snapshot:
//
//	mcsim -workload example2 -save-state warm.snap
//	mcsim -workload example2 -load-state warm.snap -prefetch -spec -cpuprofile measured.pprof
package main

import (
	"flag"
	"fmt"
	"os"

	"mcmsim/cmd/internal/profile"
	"mcmsim/internal/coherence"
	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/parsim"
	"mcmsim/internal/sim"
	"mcmsim/internal/snapshot"
	"mcmsim/internal/workload"
)

func main() {
	var (
		wl        = flag.String("workload", "example1", "workload: example1, example2, critical, producer, mix, array, swprefetch, barrier, falseshare, wide")
		model     = flag.String("model", "SC", "consistency model: SC, PC, WC, RC")
		procs     = flag.Int("procs", 0, "processor count (0 = workload default)")
		topo      = flag.String("topo", "", "interconnect: uniform (default), mesh (auto-sized), or mesh:WxH")
		hoplat    = flag.Uint64("hoplat", 0, "mesh per-hop latency in cycles (0 = default 10)")
		linkgap   = flag.Uint64("linkgap", 0, "mesh per-link occupancy per message in cycles (0 = default 1)")
		dirptrs   = flag.Int("dirptrs", 0, "directory exact-pointer capacity with coarse-vector overflow (0 = full bit-vector)")
		prefetch  = flag.Bool("prefetch", false, "enable hardware non-binding prefetch (§3)")
		spec      = flag.Bool("spec", false, "enable speculative loads (§4)")
		reissue   = flag.Bool("reissue", true, "with -spec: reissue-only correction for undone loads")
		adveHill  = flag.Bool("advehill", false, "Adve-Hill SC ownership comparator (§6)")
		nst       = flag.Bool("nst", false, "Stenstrom cacheless comparator (§6)")
		detectSC  = flag.Bool("detect-sc", false, "SC-violation detector on relaxed hardware (§6, ref [6])")
		update    = flag.Bool("update", false, "write-update coherence protocol instead of invalidation")
		modules   = flag.Int("modules", 1, "interleaved home memory modules")
		dirBW     = flag.Int("dirbw", 0, "messages each home module services per cycle (0 = unlimited)")
		miss      = flag.Uint64("miss", 100, "end-to-end clean miss latency in cycles")
		realistic = flag.Bool("realistic", false, "4-wide realistic pipeline instead of the paper's abstract machine")
		seed      = flag.Int64("seed", 7, "seed for randomized workloads")
		showStats = flag.Bool("stats", false, "print component statistics after the run")
		disasm    = flag.Bool("disasm", false, "print the program(s) before running")
		par       = flag.Int("par", 1, "shard the simulation across up to N goroutines (results are byte-identical for every N)")
		schedWant = flag.Bool("schedstats", false, "print the scheduler's counters for the measured phase: the shard engine's per-shard counters when it ran, else why the run was sequential and the sequential loop's stepped/skipped cycles and node ticks")
		saveState = flag.String("save-state", "", "write a machine snapshot to this file (after warmup if the workload has one, else after the run)")
		loadState = flag.String("load-state", "", "restore the machine from this snapshot instead of simulating the warmup; a mid-flight checkpoint resumes in place")
		ckptEvery = flag.Uint64("checkpoint-every", 0, "with -save-state: overwrite the snapshot file with a mid-flight checkpoint every N cycles of the measured phase (drives the sequential loop)")
		stopAt    = flag.Uint64("stop-at", 0, "stop the measured phase at this absolute cycle; with -save-state, leaves a mid-flight checkpoint that -load-state resumes")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file (covers the measured phase only)")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.IntVar(procs, "cpus", 0, "alias for -procs")
	flag.Parse()

	m, err := core.ParseModel(*model)
	if err != nil {
		fatal(err)
	}
	cfg := sim.PaperConfig()
	if *realistic {
		cfg = sim.RealisticConfig()
	}
	cfg = cfg.WithMissLatency(*miss)
	cfg.Model = m
	cfg.Tech = core.Technique{
		Prefetch: *prefetch, SpecLoad: *spec, ReissueOpt: *spec && *reissue,
		AdveHill: *adveHill, DetectSC: *detectSC,
	}
	cfg.NST = *nst
	cfg.MemModules = *modules
	cfg.DirBandwidth = *dirBW
	cfg.Topo = *topo
	cfg.HopLatency = *hoplat
	cfg.LinkGap = *linkgap
	cfg.DirPointers = *dirptrs
	if *update {
		cfg.Protocol = coherence.ProtoUpdate
	}

	progs, warmups, preload, check := buildWorkload(*wl, *procs, *seed)
	cfg.Procs = len(progs)
	// Resolve now so the snapshot-conflict checks compare the machine the
	// flags describe, defaults included, with the machine saved.
	if cfg, err = cfg.Resolve(); err != nil {
		fatal(err)
	}
	if cfg.Topo != "" && !flagSet("modules") {
		// Mesh machines distribute memory DASH-style unless -modules was
		// given explicitly.
		cfg.MemModules = cfg.Procs
	}

	if *disasm {
		for i, p := range progs {
			fmt.Printf("--- processor %d ---\n%s", i, p.Disassemble())
		}
	}

	var s *sim.System
	savedPostWarmup := false
	switch {
	case *loadState != "":
		s = restoreState(*loadState, cfg, len(progs))
		if s.Done() {
			s.Cfg.Model = cfg.Model
			s.Cfg.Tech = cfg.Tech
			// The snapshot's memory image is authoritative: it already holds
			// the preload (applied before the warmup that produced it) plus
			// everything the warmup wrote, so it is not re-applied here.
			s.LoadPrograms(progs)
		} else if s.Cfg.Model != cfg.Model || s.Cfg.Tech != cfg.Tech {
			// A mid-flight checkpoint resumes the captured pipelines in
			// place, so model and technique are pinned by the snapshot just
			// like the structural flags.
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "model", "prefetch", "spec", "reissue", "advehill", "detect-sc":
					fatal(fmt.Errorf("load-state: -%s conflicts with the mid-flight machine saved in %s", f.Name, *loadState))
				}
			})
		}
	case warmups != nil:
		s = sim.New(cfg, warmups)
		s.Preload(preload)
		if _, err := parsim.Drive(s, *par); err != nil {
			fatal(fmt.Errorf("warmup: %w", err))
		}
		if *saveState != "" {
			writeState(s, *saveState)
			savedPostWarmup = true
		}
		s.LoadPrograms(progs)
	default:
		s = sim.New(cfg, progs)
		s.Preload(preload)
	}

	// Profiles cover only the measured phase: warmup simulation and state
	// restore are setup, and excluding them is the point of -load-state.
	stopProf, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	var cycles uint64
	finished := true
	// Why the measured phase runs sequentially, if it does (-schedstats);
	// a parallel warmup's report must not stand in for it.
	s.ParReport = ""
	seqReason := parsim.DeclineReason(s, *par)
	startCycle, startSkipped, startTicks := s.Cycle, s.FastForwarded, s.NodeTicks
	if *ckptEvery > 0 || *stopAt > 0 {
		seqReason = "-checkpoint-every and -stop-at drive the sequential loop"
		if *ckptEvery > 0 && *saveState == "" {
			fatal(fmt.Errorf("-checkpoint-every requires -save-state"))
		}
		for {
			target := *stopAt
			if *ckptEvery > 0 {
				target = s.Cycle + *ckptEvery
				if *stopAt > 0 && target > *stopAt {
					target = *stopAt
				}
			}
			done, err := s.RunUntil(target)
			if err != nil {
				fatal(err)
			}
			if *saveState != "" {
				writeState(s, *saveState)
				savedPostWarmup = true // the loop's last write wins
			}
			if done {
				break
			}
			if *stopAt > 0 && s.Cycle >= *stopAt {
				finished = false
				break
			}
		}
		if finished {
			cycles = s.HaltCycle() - s.BaseCycle()
		} else {
			cycles = s.Cycle - s.BaseCycle()
		}
	} else if cycles, err = parsim.Drive(s, *par); err != nil {
		fatal(err)
	}
	if *saveState != "" && !savedPostWarmup {
		writeState(s, *saveState)
	}
	topoName := s.Cfg.Topo
	if topoName == "" {
		topoName = "uniform"
	}
	fmt.Printf("workload=%s model=%v tech=%v protocol=%v miss=%d procs=%d topo=%s\n",
		*wl, m, cfg.Tech, cfg.Protocol, cfg.MissLatency(), cfg.Procs, topoName)
	if finished {
		fmt.Printf("cycles: %d\n", cycles)
	} else {
		fmt.Printf("cycles: %d (stopped mid-flight; resume with -load-state)\n", cycles)
	}
	if *detectSC && finished {
		var det uint64
		for _, u := range s.LSUs {
			det += u.SCViolations()
		}
		if det == 0 {
			fmt.Println("sc-detector: execution certified sequentially consistent")
		} else {
			fmt.Printf("sc-detector: %d possible SC violations (program has data races)\n", det)
		}
	}
	if check != nil && finished {
		check(s)
	}
	if *showStats {
		fmt.Println()
		fmt.Print(s.StatsReport())
	}
	if *schedWant {
		fmt.Println()
		if s.ParReport == "" {
			fmt.Printf("parsim: sequential run (%s)\n", seqReason)
			skipped := s.FastForwarded - startSkipped
			stepped := s.Cycle - startCycle - skipped
			ticks := s.NodeTicks - startTicks
			ratio := 0.0
			if nodes := uint64(len(s.Procs) + len(s.Dirs)); stepped > 0 {
				ratio = float64(ticks) / float64(stepped*nodes)
			}
			fmt.Printf("sim: stepped=%d skipped=%d node_ticks=%d busy_node_ratio=%.4f\n", stepped, skipped, ticks, ratio)
		} else {
			fmt.Print(s.ParReport)
		}
	}
}

// buildWorkload returns the programs, optional warmup programs, memory
// preload and an optional result check for a named workload.
func buildWorkload(name string, procs int, seed int64) (progs, warmups []*isa.Program, preload map[uint64]int64, check func(*sim.System)) {
	def := func(n int) int {
		if procs > 0 {
			return procs
		}
		return n
	}
	switch name {
	case "example1":
		return []*isa.Program{workload.Example1()}, nil, nil, nil
	case "example2":
		return []*isa.Program{workload.Example2()},
			[]*isa.Program{workload.Example2Warmup()},
			map[uint64]int64{workload.AddrD: workload.DValue},
			nil
	case "critical":
		n := def(4)
		ps := make([]*isa.Program, n)
		for p := 0; p < n; p++ {
			ps[p] = workload.CriticalSection(p, n, 4, 2, 1)
		}
		return ps, nil, nil, func(s *sim.System) {
			fmt.Printf("counter: %d (expected %d)\n", s.ReadCoherent(workload.CounterAddr(0)), n*4*2)
		}
	case "producer":
		prod, cons := workload.ProducerConsumer(16)
		return []*isa.Program{prod, cons}, nil, nil, func(s *sim.System) {
			fmt.Printf("consumer checksum: %d (expected %d)\n", s.ReadCoherent(workload.SumAddr), 16*17/2)
		}
	case "mix":
		n := def(3)
		ps := make([]*isa.Program, n)
		for p := 0; p < n; p++ {
			ps[p] = workload.RandomSharing(p, n, workload.EqualizationMix(seed))
		}
		return ps, nil, nil, nil
	case "array":
		return []*isa.Program{workload.ArraySweep(0, 64)}, nil, nil, nil
	case "swprefetch":
		return []*isa.Program{workload.SoftwarePrefetchSweep(0, 64, 16)}, nil, nil, nil
	case "barrier":
		n := def(4)
		ps := make([]*isa.Program, n)
		for p := 0; p < n; p++ {
			ps[p] = workload.BarrierPhases(p, n, 5, 4)
		}
		return ps, nil, nil, func(s *sim.System) {
			fmt.Printf("final sense: %d (expected 5)\n", s.ReadCoherent(workload.BarrierSenseAddr))
		}
	case "falseshare":
		n := def(4)
		ps := make([]*isa.Program, n)
		for p := 0; p < n; p++ {
			ps[p] = workload.FalseSharing(p, 8)
		}
		return ps, nil, nil, nil
	case "wide":
		// Machine-wide read sharing with rotating writers — the scale
		// workload: every CPU becomes a sharer of every hot line, so an
		// invalidation fans out across the whole machine (E16).
		n := def(16)
		ps := make([]*isa.Program, n)
		for p := 0; p < n; p++ {
			ps[p] = workload.WideSharing(p, n, 4, 4)
		}
		return ps, nil, nil, nil
	default:
		fatal(fmt.Errorf("unknown workload %q", name))
		return nil, nil, nil, nil
	}
}

// writeState snapshots the machine (quiescent or mid-flight) to a file.
func writeState(s *sim.System, path string) {
	m, err := s.Snapshot()
	if err != nil {
		fatal(fmt.Errorf("save-state: %w", err))
	}
	if err := snapshot.WriteFile(path, m); err != nil {
		fatal(fmt.Errorf("save-state: %w", err))
	}
	fmt.Fprintf(os.Stderr, "mcsim: machine state saved to %s (cycle %d)\n", path, s.Cycle)
}

// restoreState rebuilds a machine from a snapshot file. Structural
// parameters (latencies, module count, protocol, cache geometry, processor
// count) come from the snapshot; an explicit flag that contradicts it is an
// error rather than a silent override, since the restored machine cannot
// change shape. Model and technique are applied by the caller — they only
// affect the LSUs and CPUs, which LoadPrograms rebuilds.
func restoreState(path string, cfg sim.Config, nprogs int) *sim.System {
	m, err := snapshot.ReadFile(path)
	if err != nil {
		fatal(fmt.Errorf("load-state: %w", err))
	}
	s, err := sim.Restore(m)
	if err != nil {
		fatal(fmt.Errorf("load-state: %w", err))
	}
	conflicts := map[string]bool{
		"miss":      s.Cfg.MissLatency() != cfg.MissLatency(),
		"modules":   s.Cfg.MemModules != cfg.MemModules,
		"dirbw":     s.Cfg.DirBandwidth != cfg.DirBandwidth,
		"update":    s.Cfg.Protocol != cfg.Protocol,
		"nst":       s.Cfg.NST != cfg.NST,
		"realistic": s.Cfg.Cache != cfg.Cache || s.Cfg.CPU != cfg.CPU,
	}
	conflicts["topo"] = s.Cfg.Topo != cfg.Topo
	conflicts["hoplat"] = s.Cfg.HopLatency != cfg.HopLatency
	conflicts["linkgap"] = s.Cfg.LinkGap != cfg.LinkGap
	conflicts["dirptrs"] = s.Cfg.DirPointers != cfg.DirPointers
	flag.Visit(func(f *flag.Flag) {
		if conflicts[f.Name] {
			fatal(fmt.Errorf("load-state: -%s conflicts with the machine saved in %s", f.Name, path))
		}
	})
	if s.Cfg.Procs != nprogs {
		fatal(fmt.Errorf("load-state: snapshot has %d processors, workload builds %d programs", s.Cfg.Procs, nprogs))
	}
	return s
}

// flagSet reports whether the named flag was given explicitly.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcsim:", err)
	os.Exit(1)
}
