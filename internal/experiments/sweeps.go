package experiments

import (
	"fmt"

	"mcmsim/internal/coherence"
	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
	"mcmsim/internal/workload"
)

// paperConfig and realisticConfig are sim.PaperConfig and
// sim.RealisticConfig on the suite's base coherence protocol
// (Params.Protocol). Every sweep without a protocol axis of its own builds
// its machines from one of them.
func paperConfig(proto coherence.Protocol) sim.Config {
	c := sim.PaperConfig()
	c.Protocol = proto
	return c
}

func realisticConfig(proto coherence.Protocol) sim.Config {
	c := sim.RealisticConfig()
	c.Protocol = proto
	return c
}

// simJob builds the common job shape: Configure assembles the machine,
// the executor drives it, and Measure labels the resulting cycle count.
// extra, if non-nil, harvests derived statistics from the finished
// machine. Declaring the drive-then-extract split (Measure instead of an
// opaque Run) is what lets the sweep farm checkpoint these jobs mid-run
// and resume them on another worker.
func simJob(name string, labels map[string]string, build func() *sim.System, extra func(*sim.System) map[string]float64) runner.Job {
	return runner.Job{
		Name:      name,
		Configure: func() (*sim.System, error) { return build(), nil },
		Measure: func(s *sim.System, cycles uint64) (runner.Row, error) {
			row := runner.Row{Labels: labels, Cycles: cycles}
			if extra != nil {
				row.Extra = extra(s)
			}
			return row, nil
		},
	}
}

// mixedWorkload is the standard multi-phase program set used by the
// equalization and latency experiments: lock-protected shared updates
// interleaved with private computation, the data-race-free style the paper
// argues is the common case (§5).
func mixedWorkload(nprocs int, seed int64) []*isa.Program {
	progs := make([]*isa.Program, nprocs)
	for p := 0; p < nprocs; p++ {
		progs[p] = workload.RandomSharing(p, nprocs, workload.EqualizationMix(seed))
	}
	return progs
}

// EqualizationJobs enumerates experiment E1: every model under every
// technique on the mixed workload. The paper's §5 claim is that with both
// techniques the models' performance converges ("the performance of
// different consistency models is equalized").
func EqualizationJobs(nprocs int, seed int64, proto coherence.Protocol) []runner.Job {
	var jobs []runner.Job
	for _, m := range core.AllModels {
		for _, t := range []core.Technique{TechConv, TechPf, TechSpec, TechBoth} {
			jobs = append(jobs, simJob(
				fmt.Sprintf("equalization/%v/%v", m, t),
				map[string]string{"model": m.String(), "tech": t.String()},
				func() *sim.System {
					cfg := realisticConfig(proto)
					cfg.Procs = nprocs
					cfg.Model = m
					cfg.Tech = t
					return sim.New(cfg, mixedWorkload(nprocs, seed))
				}, nil))
		}
	}
	return jobs
}

// LatencySweepJobs enumerates E2: miss latency varied, SC and RC measured
// with and without the techniques on the mixed workload — the gap between
// models grows with latency conventionally and stays narrow with the
// techniques.
func LatencySweepJobs(nprocs int, seed int64, latencies []uint64, proto coherence.Protocol) []runner.Job {
	var jobs []runner.Job
	for _, lat := range latencies {
		for _, m := range []core.Model{core.SC, core.RC} {
			for _, t := range []core.Technique{TechConv, TechBoth} {
				jobs = append(jobs, simJob(
					fmt.Sprintf("latency/%d/%v/%v", lat, m, t),
					map[string]string{
						"miss": fmt.Sprint(lat), "model": m.String(), "tech": t.String(),
					},
					func() *sim.System {
						cfg := realisticConfig(proto).WithMissLatency(lat)
						cfg.Procs = nprocs
						cfg.Model = m
						cfg.Tech = t
						return sim.New(cfg, mixedWorkload(nprocs, seed))
					}, nil))
			}
		}
	}
	return jobs
}

// specStats sums the speculative-load counters across load/store units.
func specStats(s *sim.System) (entries, squashes, reissues uint64) {
	for _, u := range s.LSUs {
		entries += u.Stats.Counter("spec_entries").Value()
		squashes += u.Stats.Counter("spec_squashes").Value()
		reissues += u.Stats.Counter("spec_reissues").Value()
	}
	return
}

// ContentionSweepJobs enumerates E3: the fraction of shared accesses varied,
// measuring the speculative-load squash rate and its cost under SC. §5
// argues invalidated speculations are rare in well-behaved programs; this
// shows where that stops being true.
func ContentionSweepJobs(nprocs int, seed int64, shareFracs []float64, proto coherence.Protocol) []runner.Job {
	var jobs []runner.Job
	for _, frac := range shareFracs {
		jobs = append(jobs, simJob(
			fmt.Sprintf("contention/%.2f", frac),
			map[string]string{"share": fmt.Sprintf("%.2f", frac)},
			func() *sim.System {
				cfg := realisticConfig(proto)
				cfg.Procs = nprocs
				cfg.Model = core.SC
				cfg.Tech = TechBoth
				mix := workload.DefaultMix(seed)
				mix.ShareFrac = frac
				mix.Sync = false // racy sharing: worst case for speculation
				progs := make([]*isa.Program, nprocs)
				for p := 0; p < nprocs; p++ {
					progs[p] = workload.RandomSharing(p, nprocs, mix)
				}
				return sim.New(cfg, progs)
			},
			func(s *sim.System) map[string]float64 {
				entries, squashes, reissues := specStats(s)
				rate := 0.0
				if entries > 0 {
					rate = float64(squashes+reissues) / float64(entries)
				}
				return map[string]float64{"squash_rate": rate, "squashes": float64(squashes), "reissues": float64(reissues)}
			}))
	}
	return jobs
}

// LookaheadSweepJobs enumerates E4: the reorder-buffer size varied under
// SC. §3.2 notes that hardware prefetching is limited by the instruction
// lookahead window, so small windows should blunt the techniques.
func LookaheadSweepJobs(robSizes []int, proto coherence.Protocol) []runner.Job {
	var jobs []runner.Job
	const n = 64
	for _, size := range robSizes {
		for _, t := range []core.Technique{TechConv, TechBoth} {
			jobs = append(jobs, simJob(
				fmt.Sprintf("lookahead/%d/%v", size, t),
				map[string]string{"rob": fmt.Sprint(size), "tech": t.String()},
				func() *sim.System {
					cfg := paperConfig(proto)
					cfg.CPU.ROBSize = size
					cfg.Model = core.SC
					cfg.Tech = t
					return sim.New(cfg, []*isa.Program{workload.ArraySweep(0, n)})
				}, nil))
		}
	}
	return jobs
}

// ProtocolComparisonJobs enumerates E5: invalidation versus update
// coherence under RC with and without prefetching. §3.1 notes
// read-exclusive prefetch is only possible with invalidations, so the
// prefetch benefit on write traffic disappears under the update protocol.
func ProtocolComparisonJobs(nprocs int, seed int64) []runner.Job {
	var jobs []runner.Job
	for _, proto := range []coherence.Protocol{coherence.ProtoInvalidate, coherence.ProtoUpdate} {
		for _, t := range []core.Technique{TechConv, TechPf} {
			jobs = append(jobs, simJob(
				fmt.Sprintf("protocol/%v/%v", proto, t),
				map[string]string{"protocol": proto.String(), "tech": t.String()},
				func() *sim.System {
					cfg := sim.RealisticConfig()
					cfg.Procs = nprocs
					cfg.Model = core.RC
					cfg.Tech = t
					cfg.Protocol = proto
					return sim.New(cfg, mixedWorkload(nprocs, seed))
				},
				func(s *sim.System) map[string]float64 {
					var pf uint64
					for _, c := range s.Caches {
						pf += c.Stats.Counter("prefetches_issued").Value()
					}
					return map[string]float64{"prefetches": float64(pf)}
				}))
		}
	}
	return jobs
}

// sharedWriterWarmup builds the E6 warmup: processor 1 reads n lines so
// they are remotely shared before the measured writes.
func sharedWriterWarmup(n int) []*isa.Program {
	w := isa.NewBuilder()
	for i := 0; i < n; i++ {
		w.LoadAbs(isa.R1, int64(0x4000+i*0x10))
	}
	w.Halt()
	return []*isa.Program{workload.Idle(), w.Build()}
}

// sharedWriterMain is the measured E6 phase: processor 0 writes each warmed
// line in sequence, so every store must invalidate a remote copy — the
// case where gaining ownership is observably cheaper than performing the
// write everywhere.
func sharedWriterMain(n int) []*isa.Program {
	b := isa.NewBuilder()
	b.Li(isa.R2, 1)
	for i := 0; i < n; i++ {
		b.StoreAbs(isa.R2, int64(0x4000+i*0x10))
	}
	b.Halt()
	return []*isa.Program{b.Build(), workload.Idle()}
}

// AdveHillComparisonJobs enumerates E6: sequential consistency measured
// conventionally, with the Adve-Hill ownership optimization, and with the
// paper's combined techniques, on a write-intensive workload with remote
// sharers. The paper predicts the Adve-Hill gains are limited — "the
// latency of obtaining ownership is often only slightly smaller than the
// latency for the write to complete" — while prefetching/speculation
// pipeline the whole stream.
//
// The warmup (the remote sharer's read pass) is declared as a
// runner.WarmupSpec so the pool can simulate it once and clone it for all
// three variants. It runs under the conventional technique for every
// variant: the measured technique is applied only by Finish, after the
// warmup. That keeps the three warmup keys equal, and it is exact — the
// warmup is a pure load stream whose final machine state (cache lines,
// sharing vectors, versions, memory) does not depend on the measured
// variant's store-side technique.
func AdveHillComparisonJobs(nStores int, proto coherence.Protocol) []runner.Job {
	variants := []struct {
		name string
		tech core.Technique
	}{
		{"conv", TechConv},
		{"advehill", core.Technique{AdveHill: true}},
		{"pf+spec", TechBoth},
	}
	warmCfg := paperConfig(proto)
	warmCfg.Procs = 2
	warmCfg.Model = core.SC
	warmCfg.Tech = TechConv
	key := runner.WarmupKey(warmCfg, sharedWriterWarmup(nStores), nil)
	var jobs []runner.Job
	for _, v := range variants {
		jobs = append(jobs, runner.Job{
			Name: "advehill/" + v.name,
			Warmup: &runner.WarmupSpec{
				Key: key,
				Build: func() (*sim.System, error) {
					s := sim.New(warmCfg, sharedWriterWarmup(nStores))
					if _, err := s.Run(); err != nil {
						return nil, fmt.Errorf("warmup: %w", err)
					}
					return s, nil
				},
				Finish: func(s *sim.System) error {
					s.Cfg.Tech = v.tech
					s.LoadPrograms(sharedWriterMain(nStores))
					return nil
				},
			},
			Measure: func(s *sim.System, cycles uint64) (runner.Row, error) {
				return runner.Row{Labels: map[string]string{"impl": v.name}, Cycles: cycles}, nil
			},
		})
	}
	return jobs
}

// warmedGridLines is the warmed-array footprint of experiment E15: large
// enough that the shared warm pass dominates each point's simulation time,
// which is what the warmup-snapshot cache exists to amortize.
const warmedGridLines = 64

// warmedGridWarmup warms E15's array on both processors: each reads every
// line, so afterwards the whole array is resident Shared in both caches
// with the directory tracking both sharers. Pure load streams: the final
// machine state cannot depend on the consistency model or the store-side
// technique, which is what makes one canonical warmup exact for every grid
// point.
func warmedGridWarmup(n int) []*isa.Program {
	a, b := isa.NewBuilder(), isa.NewBuilder()
	for i := 0; i < n; i++ {
		addr := int64(0x8000 + i*0x10)
		a.LoadAbs(isa.R1, addr)
		b.LoadAbs(isa.R1, addr)
	}
	a.Halt()
	b.Halt()
	return []*isa.Program{a.Build(), b.Build()}
}

// warmedGridMain is E15's measured kernel: processor 0 sweeps the warmed
// array — every load hits — and stores to every eighth line, each store an
// upgrade that must invalidate processor 1's copy. The kernel is short
// relative to the warmup, so the sweep's cost is dominated by warm-state
// construction; the stores are what separate the models and techniques.
func warmedGridMain(n int) []*isa.Program {
	b := isa.NewBuilder()
	b.Li(isa.R2, 1)
	for i := 0; i < n; i++ {
		addr := int64(0x8000 + i*0x10)
		b.LoadAbs(isa.R1, addr)
		if i%8 == 0 {
			b.StoreAbs(isa.R2, addr)
		}
	}
	b.Halt()
	return []*isa.Program{b.Build(), workload.Idle()}
}

// WarmedEqualizationJobs enumerates experiment E15: the §5 equalization
// claim measured on warmed caches — every consistency model, conventional
// and with both techniques, running a short store-bearing kernel over an
// array that a shared warmup pass made resident and remotely shared. With
// cold caches (E1) the grid mixes cold-miss cost into every cell; here the
// warm state isolates exactly what the techniques hide: the invalidation
// latency of the kernel's stores.
//
// All ten points declare the same warmup key: the warm pass runs once
// under a canonical configuration (SC, conventional) and each point's
// Finish applies its measured model and technique before loading the
// kernel — exact for the same reason as E6's shared warmup, since the pure
// load-stream warmup's final state is model- and technique-independent.
// The sweep is also the suite's showcase for the warmup-snapshot cache:
// one simulated warmup serves ten measured points.
func WarmedEqualizationJobs(proto coherence.Protocol) []runner.Job {
	techs := []struct {
		name string
		tech core.Technique
	}{
		{"conv", TechConv},
		{"pf+spec", TechBoth},
	}
	warmCfg := paperConfig(proto)
	warmCfg.Procs = 2
	warmCfg.Model = core.SC
	warmCfg.Tech = TechConv
	key := runner.WarmupKey(warmCfg, warmedGridWarmup(warmedGridLines), nil)
	var jobs []runner.Job
	for _, m := range core.AllModels {
		for _, tc := range techs {
			m, tc := m, tc
			jobs = append(jobs, runner.Job{
				Name: fmt.Sprintf("warmequal/%v/%s", m, tc.name),
				Warmup: &runner.WarmupSpec{
					Key: key,
					Build: func() (*sim.System, error) {
						s := sim.New(warmCfg, warmedGridWarmup(warmedGridLines))
						if _, err := s.Run(); err != nil {
							return nil, fmt.Errorf("warmup: %w", err)
						}
						return s, nil
					},
					Finish: func(s *sim.System) error {
						s.Cfg.Model = m
						s.Cfg.Tech = tc.tech
						s.LoadPrograms(warmedGridMain(warmedGridLines))
						return nil
					},
				},
				Measure: func(s *sim.System, cycles uint64) (runner.Row, error) {
					return runner.Row{Labels: map[string]string{"model": m.String(), "tech": tc.name}, Cycles: cycles}, nil
				},
			})
		}
	}
	return jobs
}

// StenstromComparisonJobs enumerates E7: cached SC — conventional and with
// the paper's techniques — against the cacheless NST scheme on a workload
// with reuse. §6 argues disallowing caches "can severely hinder
// performance" — every re-reference pays a full memory round trip, while
// cached runs hit after the first pass.
func StenstromComparisonJobs(n int, proto coherence.Protocol) []runner.Job {
	// A reuse-heavy single-processor loop: the array is swept four times,
	// so the cached machine hits on later passes while NST pays full
	// latency every time.
	buildProg := func() *isa.Program {
		b := isa.NewBuilder()
		for pass := 0; pass < 4; pass++ {
			for i := 0; i < n; i++ {
				b.LoadAbs(isa.R1, int64(0x10000+i))
				b.AddI(isa.R1, isa.R1, 1)
				b.StoreAbs(isa.R1, int64(0x10000+i))
			}
		}
		b.Halt()
		return b.Build()
	}

	variants := []struct {
		name string
		nst  bool
		tech core.Technique
	}{
		{"cached-SC", false, TechConv},
		{"cached-SC-pf+spec", false, TechBoth},
		{"stenstrom-NST", true, TechConv},
	}
	var jobs []runner.Job
	for _, v := range variants {
		jobs = append(jobs, simJob(
			"nst/"+v.name,
			map[string]string{"impl": v.name},
			func() *sim.System {
				cfg := paperConfig(proto)
				cfg.Model = core.SC
				cfg.NST = v.nst
				cfg.Tech = v.tech
				return sim.New(cfg, []*isa.Program{buildProg()})
			}, nil))
	}
	return jobs
}

// SoftwarePrefetchComparisonJobs enumerates E9: hardware-controlled
// prefetching against compiler-inserted software prefetches across
// instruction-window sizes, under SC. §6: "the prefetching window [of the
// hardware scheme] is limited to the size of the instruction lookahead
// buffer, while theoretically, software-controlled non-binding prefetching
// has an arbitrarily large window" — and the two "should ... complement
// one another".
func SoftwarePrefetchComparisonJobs(robSizes []int, proto coherence.Protocol) []runner.Job {
	const n, dist = 64, 16
	variants := []struct {
		name string
		sw   bool
		tech core.Technique
	}{
		{"none", false, TechConv},
		{"hw", false, TechPf},
		{"sw", true, TechConv},
		{"hw+sw", true, TechPf},
	}
	var jobs []runner.Job
	for _, size := range robSizes {
		for _, v := range variants {
			jobs = append(jobs, simJob(
				fmt.Sprintf("swprefetch/%d/%s", size, v.name),
				map[string]string{"rob": fmt.Sprint(size), "prefetch": v.name},
				func() *sim.System {
					prog := workload.ArraySweep(0, n)
					if v.sw {
						prog = workload.SoftwarePrefetchSweep(0, n, dist)
					}
					cfg := paperConfig(proto)
					cfg.CPU.ROBSize = size
					cfg.Model = core.SC
					cfg.Tech = v.tech
					return sim.New(cfg, []*isa.Program{prog})
				}, nil))
		}
	}
	return jobs
}

// SCDetectionJobs enumerates E10, the §6 extension (the paper's reference
// [6]): running on release-consistent hardware with the detector on, a
// data-race-free program certifies as sequentially consistent (zero
// detections), while a racy program whose RC execution actually violates
// SC is flagged.
func SCDetectionJobs(proto coherence.Protocol) []runner.Job {
	detect := core.Technique{DetectSC: true}
	mp := workload.MessagePassing(false)
	return []runner.Job{
		{
			// Racy case: the ordinary message-passing litmus, which RC
			// reorders.
			Name: "scdetect/MP-racy",
			Configure: func() (*sim.System, error) {
				return litmusSystem(mp, core.RC, detect, coherence.ProtoInvalidate)
			},
			Measure: func(s *sim.System, cycles uint64) (runner.Row, error) {
				cell := litmusCell(mp, core.RC, detect, s, cycles)
				return runner.Row{
					Labels: map[string]string{"program": "MP-racy", "relaxed": fmt.Sprint(cell.Relaxed)},
					Cycles: cell.Cycles,
					Extra:  map[string]float64{"detections": float64(cell.Detections)},
				}, nil
			},
		},
		{
			// Data-race-free case: producer/consumer with release/acquire.
			Name: "scdetect/producer-consumer-DRF",
			Configure: func() (*sim.System, error) {
				cfg := realisticConfig(proto)
				cfg.Procs = 2
				cfg.Model = core.RC
				cfg.Tech = detect
				prod, cons := workload.ProducerConsumer(8)
				return sim.New(cfg, []*isa.Program{prod, cons}), nil
			},
			Measure: func(s *sim.System, cycles uint64) (runner.Row, error) {
				return runner.Row{
					Labels: map[string]string{"program": "producer-consumer-DRF", "relaxed": "false"},
					Cycles: cycles,
					Extra:  map[string]float64{"detections": float64(scViolations(s))},
				}, nil
			},
		},
	}
}

// DetectionPolicyComparisonJobs enumerates E11, ablating the two detection
// mechanisms of §4.1 under SC with both techniques: the implemented
// snooping policy that conservatively squashes on any matching coherence
// transaction (footnote 2: false sharing and same-value writes included),
// against the repeat-and-compare alternative ("repeat the access when the
// consistency model would have allowed it to proceed and check the return
// value"). False sharing is where they diverge: the re-read confirms the
// word and saves the rollback, at the price of a second cache access.
func DetectionPolicyComparisonJobs(nprocs, writes int, proto coherence.Protocol) []runner.Job {
	// Both workloads hammer one 4-word line. In the false-sharing variant
	// each processor writes its own word and reads a word nobody writes:
	// every read is invalidated by a neighbour's write to the same line but
	// the value never changes, so revalidation always confirms. In the
	// true-sharing variant everybody reads the word processor 0 keeps
	// changing, so revalidation fails and the policies converge.
	buildLine := func(readWord int64, trueSharing bool) []*isa.Program {
		ps := make([]*isa.Program, nprocs)
		for p := 0; p < nprocs; p++ {
			b := isa.NewBuilder()
			for i := 0; i < writes; i++ {
				if !trueSharing || p == 0 {
					b.Li(isa.R1, int64(p*100+i+1))
					b.StoreAbs(isa.R1, 0x4000+int64(p))
				}
				// A cold private miss holds the speculative-load buffer
				// open so the following shared read stays speculative long
				// enough for remote writes to hit its window.
				b.LoadAbs(isa.R3, int64(0x20000+p*0x2000+i*0x40))
				b.LoadAbs(isa.R2, 0x4000+readWord)
			}
			b.Halt()
			ps[p] = b.Build()
		}
		return ps
	}
	workloads := []struct {
		name  string
		progs func() []*isa.Program
	}{
		{"false-sharing", func() []*isa.Program { return buildLine(3, false) }},
		{"true-sharing", func() []*isa.Program { return buildLine(0, true) }},
	}
	policies := []struct {
		name string
		tech core.Technique
	}{
		{"conservative", core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}},
		{"revalidate", core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true, Revalidate: true}},
	}
	var jobs []runner.Job
	for _, wl := range workloads {
		for _, pol := range policies {
			jobs = append(jobs, simJob(
				fmt.Sprintf("detection/%s/%s", wl.name, pol.name),
				map[string]string{"workload": wl.name, "policy": pol.name},
				func() *sim.System {
					cfg := realisticConfig(proto)
					cfg.Procs = nprocs
					cfg.Model = core.SC
					cfg.Tech = pol.tech
					cfg.LineWords = 4
					return sim.New(cfg, wl.progs())
				},
				func(s *sim.System) map[string]float64 {
					var squashes, revalOK uint64
					for _, u := range s.LSUs {
						squashes += u.Stats.Counter("spec_squashes").Value()
						revalOK += u.Stats.Counter("revalidations_ok").Value()
					}
					return map[string]float64{
						"squashes": float64(squashes),
						"reval_ok": float64(revalOK),
					}
				}))
		}
	}
	return jobs
}

// BandwidthComparisonJobs enumerates E12, measuring memory-module
// pressure: once the techniques let every processor stream requests, a
// single bounded-service home module saturates and interleaving lines
// across several modules restores the bandwidth — the scalability
// dimension of the DASH-style distributed memory the paper's host machine
// has (and the reason Stenstrom's centralized NST table "is not
// scalable", §6).
func BandwidthComparisonJobs(nprocs int, proto coherence.Protocol) []runner.Job {
	const lines = 64
	buildProgs := func() []*isa.Program {
		progs := make([]*isa.Program, nprocs)
		for p := 0; p < nprocs; p++ {
			// Disjoint streaming misses: proc p sweeps its own line range.
			b := isa.NewBuilder()
			for i := 0; i < lines; i++ {
				b.LoadAbs(isa.R1, int64(0x100000+p*0x10000+i*4))
			}
			b.Halt()
			progs[p] = b.Build()
		}
		return progs
	}
	var jobs []runner.Job
	for _, modules := range []int{1, 4} {
		for _, bw := range []int{1, 0} {
			bwLabel := fmt.Sprint(bw)
			if bw == 0 {
				bwLabel = "inf"
			}
			jobs = append(jobs, simJob(
				fmt.Sprintf("bandwidth/m%d/bw%s", modules, bwLabel),
				map[string]string{"modules": fmt.Sprint(modules), "bw": bwLabel},
				func() *sim.System {
					cfg := paperConfig(proto)
					cfg.Procs = nprocs
					cfg.LineWords = 4
					cfg.Model = core.SC
					cfg.Tech = TechBoth
					cfg.MemModules = modules
					cfg.DirBandwidth = bw
					return sim.New(cfg, buildProgs())
				}, nil))
		}
	}
	return jobs
}

// MSHRSweepJobs enumerates E13: the number of lockup-free-cache MSHRs
// varied under SC with both techniques. §3.2/§4.1 require "a
// high-bandwidth pipelined memory system, including lockup-free caches, to
// sustain several outstanding requests" — with a single MSHR the
// techniques collapse to nearly conventional performance.
func MSHRSweepJobs(mshrs []int, proto coherence.Protocol) []runner.Job {
	const n = 64
	var jobs []runner.Job
	for _, m := range mshrs {
		for _, t := range []core.Technique{TechConv, TechBoth} {
			jobs = append(jobs, simJob(
				fmt.Sprintf("mshr/%d/%v", m, t),
				map[string]string{"mshrs": fmt.Sprint(m), "tech": t.String()},
				func() *sim.System {
					cfg := paperConfig(proto)
					cfg.Cache.MaxMSHRs = m
					cfg.Model = core.SC
					cfg.Tech = t
					return sim.New(cfg, []*isa.Program{workload.ArraySweep(0, n)})
				}, nil))
		}
	}
	return jobs
}

// ReissueAblationJobs enumerates E14, isolating §4.2's second-case
// optimization: when a coherence transaction matches a speculative load
// that has NOT yet completed, "only the speculative load needs to be
// reissued, since the instructions following it have not yet used an
// incorrect value". Without the optimization every match flushes the
// pipeline conservatively.
func ReissueAblationJobs(nprocs int, seed int64, proto coherence.Protocol) []runner.Job {
	buildProgs := func() []*isa.Program {
		mix := workload.DefaultMix(seed)
		mix.ShareFrac = 0.5
		mix.Sync = false // racy sharing keeps lines bouncing mid-flight
		progs := make([]*isa.Program, nprocs)
		for p := 0; p < nprocs; p++ {
			progs[p] = workload.RandomSharing(p, nprocs, mix)
		}
		return progs
	}
	variants := []struct {
		name string
		tech core.Technique
	}{
		{"flush-always", core.Technique{Prefetch: true, SpecLoad: true}},
		{"reissue-opt", core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}},
	}
	var jobs []runner.Job
	for _, v := range variants {
		jobs = append(jobs, simJob(
			"reissue/"+v.name,
			map[string]string{"policy": v.name},
			func() *sim.System {
				cfg := realisticConfig(proto)
				cfg.Procs = nprocs
				cfg.Model = core.SC
				cfg.Tech = v.tech
				return sim.New(cfg, buildProgs())
			},
			func(s *sim.System) map[string]float64 {
				_, squashes, reissues := specStats(s)
				return map[string]float64{"flushes": float64(squashes), "reissues": float64(reissues)}
			}))
	}
	return jobs
}
