// Package sim assembles the full simulated multiprocessor: out-of-order
// processors (internal/cpu) with consistency-enforcing load/store units
// (internal/core), lockup-free caches (internal/cache), the directory
// (internal/coherence) and the interconnect (internal/network), and drives
// them with a deterministic cycle loop.
package sim

import (
	"fmt"
	"strings"

	"mcmsim/internal/cache"
	"mcmsim/internal/coherence"
	"mcmsim/internal/core"
	"mcmsim/internal/cpu"
	"mcmsim/internal/isa"
	"mcmsim/internal/memsys"
	"mcmsim/internal/network"
)

// Config describes a complete machine.
type Config struct {
	Procs     int
	Model     core.Model
	Tech      core.Technique
	Protocol  coherence.Protocol
	LineWords uint64

	// NetLatency is the one-way interconnect latency; MemLatency the
	// directory/memory service time. A clean miss costs
	// 2*NetLatency + MemLatency cycles end to end.
	NetLatency uint64
	MemLatency uint64

	// Topo selects the interconnect topology. "" or "uniform" is the seed
	// network: every node pair NetLatency apart, no contention. "mesh" is a
	// 2-D mesh auto-sized to ceil(sqrt(P)) columns; "mesh:WxH" fixes the
	// dimensions. On a mesh, CPU i and home module i share tile i (mod
	// tiles) — a DASH-style cluster — and NetLatency is ignored in favor of
	// HopLatency. Resolve normalizes the field to its explicit form
	// ("mesh:WxH", or "" for uniform).
	Topo string
	// HopLatency is the mesh per-link traversal latency (default 10, so a
	// one-hop round trip with MemLatency 10 costs 2*10+10 = 30 cycles and
	// cross-machine traffic pays distance on top).
	HopLatency uint64
	// LinkGap is the mesh per-directed-link occupancy per message: each
	// link accepts one message every LinkGap cycles; later messages queue
	// deterministically (default 1).
	LinkGap uint64

	// DirPointers bounds each directory entry to this many exact sharer
	// pointers; an overflowing line falls back to a coarse vector over
	// groups of ceil(P/64) CPUs, which over-invalidates but keeps directory
	// storage per line O(DirPointers) instead of O(P). 0 = unbounded exact
	// tracking (the seed behavior).
	DirPointers int

	Cache cache.Config
	CPU   cpu.Config

	// NST enables the Stenstrom comparator (paper §6): caches bypassed,
	// ordering guaranteed at the memory module.
	NST bool

	// UncachedRMW lists word addresses whose RMWs bypass the cache
	// (Appendix A's non-cached synchronization locations).
	UncachedRMW map[uint64]bool

	// MemModules interleaves lines across this many home directory/memory
	// modules (0 or 1 = a single home). DASH-style distributed memory.
	MemModules int
	// DirBandwidth bounds the messages each home module services per cycle
	// (0 = unlimited, the paper's pipelined-memory assumption).
	DirBandwidth int

	// MaxCycles aborts a run that fails to converge (deadlock guard;
	// default 2 000 000).
	MaxCycles uint64

	// DenseLoop disables the wake schedule: Run calls Step, which ticks
	// every node on every cycle even when all of them are provably inert.
	// The reference for debugging and for the differential tests that
	// prove the schedule changes nothing. The shard engine ignores it.
	DenseLoop bool
}

// PaperConfig reproduces the abstract machine of the paper's examples:
// 1-cycle cache hits, 100-cycle misses (45+10+45), one access accepted per
// cycle, free instruction supply, single-word lines so the examples never
// interact through false sharing.
func PaperConfig() Config {
	return Config{
		Procs:      1,
		Model:      core.SC,
		Protocol:   coherence.ProtoInvalidate,
		LineWords:  1,
		NetLatency: 45,
		MemLatency: 10,
		Cache:      cache.DefaultConfig(),
		CPU:        cpu.PaperConfig(),
		MaxCycles:  defaultMaxCycles,
	}
}

// RealisticConfig is a 4-wide machine with 4-word lines and the same
// 100-cycle miss, used by the workload experiments.
func RealisticConfig() Config {
	c := PaperConfig()
	c.LineWords = 4
	c.CPU = cpu.RealisticConfig()
	return c
}

// Defaults Resolve fills in for zero fields, and the scale rule of
// ResolveScaled.
const (
	defaultMaxCycles  = 2_000_000
	defaultHopLatency = 10
	defaultLinkGap    = 1
	// scaleDirPointers is the exact-pointer capacity a scaled mesh
	// directory gets once the machine outgrows it: the classic Dir_8_B
	// point, where small synchronized sharing sets stay exact and wide
	// read-sharing overflows to the coarse vector.
	scaleDirPointers = 8
	// maxNodes bounds processors, home modules and mesh tiles: far above
	// any machine the experiments build, so a configuration from a
	// command line, a farm spec or a snapshot cannot make New allocate
	// without limit.
	maxNodes = 4096
)

// Resolve returns the machine c describes with every default filled in:
// 1-word lines, the cycle budget, a single home module, and the explicit
// topology — "" for "" or "uniform" (whose mesh knobs are zeroed),
// "mesh:WxH" for "mesh", with hop latency 10 and link gap 1 unless set.
// It rejects a configuration no machine matches: fewer than one processor,
// an unknown or malformed topology, or more than 4096 processors, home
// modules or mesh tiles. Resolving a resolved configuration changes
// nothing. New, Restore and the command lines build machines from
// resolved configurations, so a saved machine and a run header name the
// machine actually built.
func (c Config) Resolve() (Config, error) {
	if c.Procs < 1 {
		return Config{}, fmt.Errorf("sim: need at least 1 processor, got %d", c.Procs)
	}
	if c.Procs > maxNodes {
		return Config{}, fmt.Errorf("sim: %d processors exceed the limit of %d", c.Procs, maxNodes)
	}
	if c.MemModules > maxNodes {
		return Config{}, fmt.Errorf("sim: %d home modules exceed the limit of %d", c.MemModules, maxNodes)
	}
	if c.LineWords == 0 {
		c.LineWords = 1
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = defaultMaxCycles
	}
	if c.MemModules <= 0 {
		c.MemModules = 1
	}
	if c.Topo == "" || c.Topo == "uniform" {
		c.Topo = ""
		c.HopLatency, c.LinkGap = 0, 0
		return c, nil
	}
	w, h, err := meshDims(c.Topo, c.Procs)
	if err != nil {
		return Config{}, err
	}
	if w > maxNodes || h > maxNodes/w {
		return Config{}, fmt.Errorf("sim: mesh %q exceeds the limit of %d tiles", c.Topo, maxNodes)
	}
	c.Topo = fmt.Sprintf("mesh:%dx%d", w, h)
	if c.HopLatency == 0 {
		c.HopLatency = defaultHopLatency
	}
	if c.LinkGap == 0 {
		c.LinkGap = defaultLinkGap
	}
	return c, nil
}

// ResolveScaled resolves c and gives a mesh machine the many-core shape
// that E16 and the conformance mesh runs measure: one home module per CPU,
// so each CPU's slice of memory sits on its own tile, and past 8 CPUs an
// 8-pointer directory with coarse-vector overflow. Both replace whatever c
// set; a uniform machine keeps c's homes and directory.
func (c Config) ResolveScaled() (Config, error) {
	c, err := c.Resolve()
	if err != nil || c.Topo == "" {
		return c, err
	}
	c.MemModules = c.Procs
	if c.Procs > scaleDirPointers {
		c.DirPointers = scaleDirPointers
	}
	return c, nil
}

// MissLatency returns the end-to-end clean-miss cost of the configuration.
func (c Config) MissLatency() uint64 { return 2*c.NetLatency + c.MemLatency }

// WithMissLatency rescales the network/memory latencies so a clean miss
// costs the given number of cycles (used by the latency sweeps). The memory
// service time is kept at ~10% of the total.
func (c Config) WithMissLatency(miss uint64) Config {
	if miss < 4 {
		miss = 4
	}
	mem := miss / 10
	if mem == 0 {
		mem = 1
	}
	if (miss-mem)%2 != 0 {
		mem++
	}
	c.NetLatency = (miss - mem) / 2
	c.MemLatency = mem
	return c
}

// ScheduledWrite injects an external write at a fixed cycle, performed by a
// cacheless agent at the directory (used by the Figure 5 trace and the
// contention tests: "assume an invalidation arrives for location D").
type ScheduledWrite struct {
	Cycle uint64
	Addr  uint64
	Value int64
}

// System is one assembled machine plus its programs.
type System struct {
	Cfg    Config
	Net    *network.Network
	Mem    *memsys.Memory
	Dirs   []*coherence.Directory
	Caches []*cache.Cache
	LSUs   []*core.LSU
	Procs  []*cpu.Proc

	agent      *agent
	writes     []ScheduledWrite
	nextWrite  int
	Cycle      uint64
	baseCycle  uint64 // cycle at which the current programs were loaded
	TraceHooks []TraceHook

	// FastForwarded counts the cycles Run skipped via the event-horizon
	// scheduler (diagnostics only; deliberately absent from StatsReport so
	// dense and fast-forward reports stay byte-identical).
	FastForwarded uint64
	// NodeTicks counts node ticks: each stepped cycle adds the processor
	// and home nodes it ticked (all of them under Step, the awake ones
	// under the wake schedule). Diagnostics only, absent from StatsReport
	// like FastForwarded.
	NodeTicks uint64

	// The wake schedule (wake.go) over the node partition (shards.go).
	nodes  []NodeShard
	wake   []uint64 // per processor and home node: its next self-wake, or never
	awake  []uint64 // bitset over the wake nodes ticked this cycle
	ticked []int    // this cycle's awake nodes, ascending

	// ParReport is the parallel engine's scheduler summary for the most
	// recent Run (per-shard cycles, windows, skips, exchanged messages).
	// Empty after a sequential run. Diagnostics only — like FastForwarded it
	// is deliberately absent from StatsReport, so sequential and parallel
	// reports stay byte-identical.
	ParReport string
}

// BaseCycle returns the cycle at which the current programs were loaded;
// halt cycles are reported relative to it.
func (s *System) BaseCycle() uint64 { return s.baseCycle }

// TraceHook observes every cycle after all phases ran; used by the
// Figure 5 tracer.
type TraceHook func(s *System, cycle uint64)

// New builds a system running the given per-processor programs on the
// machine cfg resolves to. len(progs) must equal cfg.Procs.
func New(cfg Config, progs []*isa.Program) *System {
	cfg, err := cfg.Resolve()
	if err != nil {
		panic(err.Error())
	}
	geom := memsys.NewGeometry(cfg.LineWords)
	// One storage bank per home module: each directory shard then touches
	// only its own map, which is what lets the parallel engine run home
	// nodes on separate goroutines against the one Memory.
	mem := memsys.NewBankedMemory(geom, cfg.MemModules)
	net := buildNetwork(cfg)
	homes := make([]network.NodeID, cfg.MemModules)
	dirs := make([]*coherence.Directory, cfg.MemModules)
	for i := range dirs {
		homes[i] = network.NodeID(cfg.Procs + i)
		dirs[i] = coherence.New(homes[i], net, mem, cfg.MemLatency, cfg.Protocol)
		dirs[i].MaxPerCycle = cfg.DirBandwidth
		if cfg.DirPointers > 0 {
			dirs[i].ConfigureSharers(cfg.Procs, cfg.DirPointers, 0)
		}
	}

	s := &System{Cfg: cfg, Net: net, Mem: mem, Dirs: dirs}
	s.agent = newAgent(network.NodeID(cfg.Procs+cfg.MemModules), net, homes, geom)
	s.Caches = make([]*cache.Cache, cfg.Procs)
	for i := range s.Caches {
		// The cache's client is the LSU, which LoadPrograms binds.
		c := cache.New(network.NodeID(i), homes[0], net, geom, cfg.Cache, cache.Protocol(cfg.Protocol), nil)
		if cfg.MemModules > 1 {
			c.SetHomes(homes)
		}
		if cfg.NST {
			c.EnableBypass()
		}
		s.Caches[i] = c
	}
	s.LSUs = make([]*core.LSU, cfg.Procs)
	s.Procs = make([]*cpu.Proc, cfg.Procs)
	s.partition()
	s.LoadPrograms(progs)
	n := len(s.Procs) + len(s.Dirs)
	s.wake = make([]uint64, n)
	s.awake = make([]uint64, (n+63)/64)
	s.ticked = make([]int, 0, n)
	return s
}

// CoherentSnapshot returns the architecturally visible memory image: main
// memory overlaid with every dirty cached line. Tests and examples read
// results through it (dirty lines are not written back at quiescence).
func (s *System) CoherentSnapshot() map[uint64]int64 {
	snap := s.Mem.Snapshot()
	for _, c := range s.Caches {
		for lineAddr, data := range c.DirtyLines() {
			for i, v := range data {
				a := lineAddr + uint64(i)
				if v == 0 {
					delete(snap, a)
				} else {
					snap[a] = v
				}
			}
		}
	}
	return snap
}

// ReadCoherent returns the architecturally visible value of one word.
func (s *System) ReadCoherent(addr uint64) int64 {
	lineAddr := s.Mem.Geometry().LineOf(addr)
	off := s.Mem.Geometry().Offset(addr)
	for _, c := range s.Caches {
		if data, ok := c.DirtyLines()[lineAddr]; ok {
			return data[off]
		}
	}
	return s.Mem.ReadWord(addr)
}

// Preload writes initial values directly into memory before the run.
func (s *System) Preload(values map[uint64]int64) {
	for a, v := range values {
		s.Mem.WriteWord(a, v)
	}
}

// ScheduleWrites registers external writes; they must be sorted by cycle.
func (s *System) ScheduleWrites(ws []ScheduledWrite) {
	s.writes = append(s.writes, ws...)
}

// LoadPrograms replaces the processors and load/store units with fresh ones
// running new programs, keeping memory, caches and directory state intact.
// This is how warmed-cache experiments are built (e.g. "the read to
// location D is assumed to hit in the cache").
func (s *System) LoadPrograms(progs []*isa.Program) {
	if len(progs) != s.Cfg.Procs {
		panic(fmt.Sprintf("sim: %d programs for %d processors", len(progs), s.Cfg.Procs))
	}
	geom := s.Mem.Geometry()
	lcfg := core.Config{Model: s.Cfg.Model, Tech: s.Cfg.Tech, NST: s.Cfg.NST, UncachedRMW: s.Cfg.UncachedRMW}
	for i := range progs {
		lsu := core.NewLSU(i, lcfg, s.Caches[i], geom)
		s.Caches[i].SetClient(lsu)
		s.Procs[i] = cpu.New(i, s.Cfg.CPU, progs[i], lsu)
		s.LSUs[i] = lsu
		s.nodes[i].proc, s.nodes[i].lsu = s.Procs[i], lsu
	}
	s.baseCycle = s.Cycle
}

// Step advances the machine one cycle, ticking every node. Phase order
// (documented in DESIGN.md) is what gives the paper's exact cycle counts:
// fetch/decode at cycle start, then message delivery and completions, then
// execution and retirement, then the load/store issue stage. Step is the
// dense reference that the wake-scheduled loop (stepAwake) must match.
func (s *System) Step() {
	now := s.Cycle
	for s.nextWrite < len(s.writes) && s.writes[s.nextWrite].Cycle <= now {
		s.agent.write(s.writes[s.nextWrite], now)
		s.nextWrite++
	}
	for _, p := range s.Procs {
		p.TickFrontend(now)
	}
	s.Net.Deliver(now)
	for _, d := range s.Dirs {
		d.Tick(now)
	}
	for _, c := range s.Caches {
		c.Tick(now)
	}
	for _, u := range s.LSUs {
		u.TickComplete(now)
	}
	for _, p := range s.Procs {
		p.TickExecute(now)
	}
	for _, p := range s.Procs {
		p.TickRetire(now)
	}
	for _, u := range s.LSUs {
		u.TickIssue(now)
	}
	for _, h := range s.TraceHooks {
		h(s, now)
	}
	s.NodeTicks += uint64(len(s.Procs) + len(s.Dirs))
	s.Cycle++
}

// Done reports whether every processor halted and all queues drained.
func (s *System) Done() bool {
	for _, p := range s.Procs {
		if !p.Halted() {
			return false
		}
	}
	if s.Net.Pending() > 0 || !s.agent.idle() {
		return false
	}
	for _, d := range s.Dirs {
		if !d.Quiescent() {
			return false
		}
	}
	for _, c := range s.Caches {
		if c.PendingWork() {
			return false
		}
	}
	return s.nextWrite >= len(s.writes)
}

// Run steps the machine until Done or the cycle budget is exhausted; it
// returns the cycle at which the last processor halted, relative to the
// most recent program load. Run is the sequential loop: sharded runs go
// through parsim.Drive instead.
//
// Unless Config.DenseLoop is set, Run follows the node wake schedule
// (wake.go): each stepped cycle ticks only the nodes that are due or that
// a delivery woke, and when nothing at all can happen at the current
// cycle the clock jumps straight to the event horizon — the earliest
// cycle at which anything (a network delivery, a scheduled write, a
// node's own timer) can. Every tick it leaves out is one Step would have
// made as a pure no-op, so halt cycles, statistics, memory images and
// traces are identical to the dense loop's.
func (s *System) Run() (uint64, error) {
	if _, err := s.RunUntil(never); err != nil {
		return 0, err
	}
	return s.HaltCycle() - s.baseCycle, nil
}

// RunUntil advances the machine until it is Done or the clock reaches the
// absolute cycle target, whichever comes first, and reports whether the
// machine finished. Horizon jumps are clamped to the target, so the
// machine stops at exactly that cycle regardless of the loop flavor — the
// state there is identical either way (only provable no-ops are left out)
// — which makes it the place to take a mid-flight Snapshot.
// RunUntil always drives the sequential loop; checkpointed runs trade the
// parallel engines for an interruptible clock.
func (s *System) RunUntil(target uint64) (bool, error) {
	dense := s.Cfg.DenseLoop
	if !dense {
		s.wakeAll()
	}
	for !s.Done() {
		if s.Cycle >= target {
			return false, nil
		}
		if s.Cycle-s.baseCycle > s.Cfg.MaxCycles {
			return false, fmt.Errorf("sim: no convergence after %d cycles\n%s", s.Cfg.MaxCycles, s.Dump())
		}
		if dense {
			s.Step()
		} else {
			s.advance(target)
		}
	}
	return true, nil
}

// RunCheckpointed drives the machine to completion through RunUntil slices
// of every cycles, invoking save on the quiescent-clock boundary between
// slices, and returns the halt cycle exactly as Run reports it. The slice
// boundaries land at the same absolute cycles no matter where the run
// started, so a machine restored from one of the saved checkpoints and
// driven by RunCheckpointed again produces the identical remaining
// boundary sequence — and, because RunUntil state is loop-flavor
// independent, the identical final machine. Like RunUntil it always drives
// the sequential loop: checkpointed runs trade the parallel shard engines
// for an interruptible clock.
func (s *System) RunCheckpointed(every uint64, save func(*System) error) (uint64, error) {
	if every == 0 {
		return s.Run()
	}
	// Align slice boundaries to multiples of every on the absolute clock,
	// so a resumed run (which starts at a boundary) slices exactly like the
	// run it resumes.
	for {
		target := (s.Cycle/every + 1) * every
		done, err := s.RunUntil(target)
		if err != nil {
			return 0, err
		}
		if done {
			break
		}
		if save != nil {
			if err := save(s); err != nil {
				return 0, err
			}
		}
	}
	return s.HaltCycle() - s.baseCycle, nil
}

// RunProgram is the one-shot convenience: build, run, return the halt cycle.
func RunProgram(cfg Config, progs []*isa.Program) (uint64, error) {
	return New(cfg, progs).Run()
}

// Dump renders a debugging summary of machine state.
func (s *System) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%d netPending=%d\n", s.Cycle, s.Net.Pending())
	for i, p := range s.Procs {
		fmt.Fprintf(&b, "proc%d halted=%v rob=%d\n", i, p.Halted(), p.ROBLen())
	}
	for i, c := range s.Caches {
		fmt.Fprintf(&b, "cache%d fills=%d pending=%v\n", i, c.OutstandingFills(), c.PendingWork())
	}
	return b.String()
}

// StatsReport aggregates every component's metrics into one table.
func (s *System) StatsReport() string {
	var b strings.Builder
	for _, d := range s.Dirs {
		b.WriteString(d.Stats.String())
	}
	for i := range s.Procs {
		b.WriteString(s.Procs[i].Stats.String())
		b.WriteString(s.LSUs[i].Stats.String())
		b.WriteString(s.Caches[i].Stats.String())
	}
	fmt.Fprintf(&b, "network.messages = %d\n", s.Net.MessagesSent)
	if ms, ok := s.Net.Topology().(*network.Mesh); ok {
		// Mesh-only rows: keeping them out of uniform reports preserves the
		// seed's byte-exact outputs. Both counters advance inside
		// Topology.Arrival, whose call sequence is engine-independent, so
		// these rows are too.
		fmt.Fprintf(&b, "network.hops = %d\n", ms.HopsTraveled)
		fmt.Fprintf(&b, "network.link_waits = %d\n", ms.LinkWaits)
	}
	return b.String()
}
