package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"mcmsim/internal/network"
	"mcmsim/internal/sim"
	"mcmsim/internal/stats"
)

// span is one timed call the benchmark made into a layer. Times are
// offsets from the tracer's epoch. Phase spans are sums over every cycle
// of one drive, laid end to end from the drive's start, so they never
// overlap each other and always fit inside their parent.
type span struct {
	name       string
	start, end time.Duration
	parent     int // index into tracer.spans, -1 for a root
	op         int // id of the op the span belongs to
}

// tracer keeps every span of a traced run in memory; write emits them once
// at exit. It also accumulates the per-layer counters of the current pass.
type tracer struct {
	epoch  time.Time
	spans  []span
	nextOp int

	// counters are the current pass's per-layer counts, keyed by metric
	// name; layerMetrics reads them with the pass's spans.
	counters map[string]float64
	passBase int // index of the current pass's first span

	unsplit     map[string]int // op kinds run without a per-phase split
	passUnsplit int            // such ops in the current pass
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counters: map[string]float64{}, unsplit: map[string]int{}}
}

// op allocates a fresh op id.
func (t *tracer) op() int {
	t.nextOp++
	return t.nextOp
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, op: op})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) { t.spans[i].end = time.Since(t.epoch) }

// add records a span whose duration is already known.
func (t *tracer) add(name string, parent, op int, start, dur time.Duration) {
	t.spans = append(t.spans, span{name: name, start: start, end: start + dur, parent: parent, op: op})
}

// markUnsplit notes an op of the given kind that ran without a
// per-phase split.
func (t *tracer) markUnsplit(kind string) {
	t.unsplit[kind]++
	t.passUnsplit++
}

// count adds v to the current pass's counter name.
func (t *tracer) count(name string, v float64) { t.counters[name] += v }

// selfTimes sums, per span name, each span's duration minus the part of
// it that its child spans cover.
func selfTimes(spans []span, base int) map[string]time.Duration {
	type iv struct{ a, b time.Duration }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.parent >= base {
			kids[s.parent-base] = append(kids[s.parent-base], iv{s.start, s.end})
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered time.Duration
		var curA, curB time.Duration
		open := false
		for _, v := range ivs {
			a, b := max(v.a, s.start), min(v.b, s.end)
			if b <= a {
				continue
			}
			switch {
			case !open:
				curA, curB, open = a, b, true
			case a > curB:
				covered += curB - curA
				curA, curB = a, b
			case b > curB:
				curB = b
			}
		}
		if open {
			covered += curB - curA
		}
		out[s.name] += s.end - s.start - covered
	}
	return out
}

// write emits the spans as Chrome trace-event JSON (the format Perfetto
// and chrome://tracing read), one complete event per span.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSpans(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"span": i, "parent": s.parent, "op": s.op},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs})
}

// The per-cycle phases of System.Step, in its documented order.
const (
	phFrontend = iota // Proc.TickFrontend
	phDeliver         // Network.Deliver, including the handlers it calls
	phDir             // Directory.Tick
	phCache           // Cache.Tick
	phComplete        // LSU.TickComplete
	phExecute         // Proc.TickExecute
	phRetire          // Proc.TickRetire
	phIssue           // LSU.TickIssue
	phHorizon         // the idle-skip scan over every component's NextWake
	numPhases
)

var phaseNames = [numPhases]string{
	"cpu.frontend", "network.deliver", "coherence.tick", "cache.tick",
	"core.complete", "cpu.execute", "cpu.retire", "core.issue", "sim.horizon",
}

// phaseStats is what one split drive measured.
type phaseStats struct {
	dur                    [numPhases]time.Duration
	stepped, skipped, busy uint64
	nodes                  uint64
}

// splittable reports whether phaseDrive can step s from outside. Trace
// hooks run inside Step on every cycle and are not reachable through the
// per-phase methods, so machines carrying them keep System.Run.
func splittable(s *sim.System) bool { return len(s.TraceHooks) == 0 }

// phaseDrive advances s to completion exactly as System.Run's sequential
// loop does, but by calling the components' exported per-phase methods in
// System.Step's order and timing each phase. Idle stretches are skipped
// with the same event horizon Run computes from every component's
// NextWake, and a machine that does not converge fails with System.Run's
// error, at the same cycle. The caller checks that the result, error
// included, is byte-identical to System.Run's; a machine with scheduled
// external writes (which only Step can perform) would fail that check
// rather than report a wrong split.
func phaseDrive(s *sim.System, ps *phaseStats) (uint64, error) {
	ps.nodes = uint64(len(s.Procs) + len(s.Dirs))
	for !s.Done() {
		if s.Cycle-s.BaseCycle() > s.Cfg.MaxCycles {
			return 0, fmt.Errorf("sim: no convergence after %d cycles\n%s", s.Cfg.MaxCycles, s.Dump())
		}
		t := time.Now()
		horizon, busy, due := scanWakes(s)
		ps.dur[phHorizon] += time.Since(t)
		if !s.Cfg.DenseLoop && !due && horizon > s.Cycle {
			s.FastForwarded += horizon - s.Cycle
			ps.skipped += horizon - s.Cycle
			s.Cycle = horizon
			continue
		}
		ps.stepped++
		ps.busy += busy
		stepPhases(s, &ps.dur)
	}
	return s.HaltCycle() - s.BaseCycle(), nil
}

// scanWakes computes System.Run's skip decision: the earliest wake over
// the network and every component, and whether anything is due now. It
// also counts the nodes (a processor with its LSU and cache, or a home
// directory) whose own components are due this cycle.
func scanWakes(s *sim.System) (horizon, busy uint64, due bool) {
	now := s.Cycle
	horizon = s.BaseCycle() + s.Cfg.MaxCycles + 1
	fold := func(c uint64, ok bool) bool {
		if !ok {
			return false
		}
		if c <= now {
			return true
		}
		horizon = min(horizon, c)
		return false
	}
	due = fold(s.Net.NextDelivery())
	for _, d := range s.Dirs {
		if fold(d.NextWake(now)) {
			busy++
			due = true
		}
	}
	for i := range s.Procs {
		c := fold(s.Caches[i].NextWake(now))
		u := fold(s.LSUs[i].NextWake(now))
		p := fold(s.Procs[i].NextWake(now))
		if c || u || p {
			busy++
			due = true
		}
	}
	return horizon, busy, due
}

// stepPhases is System.Step for a machine without scheduled writes or
// trace hooks, one timed phase at a time.
func stepPhases(s *sim.System, dur *[numPhases]time.Duration) {
	now := s.Cycle
	t0 := time.Now()
	for _, p := range s.Procs {
		p.TickFrontend(now)
	}
	t1 := time.Now()
	s.Net.Deliver(now)
	t2 := time.Now()
	for _, d := range s.Dirs {
		d.Tick(now)
	}
	t3 := time.Now()
	for _, c := range s.Caches {
		c.Tick(now)
	}
	t4 := time.Now()
	for _, u := range s.LSUs {
		u.TickComplete(now)
	}
	t5 := time.Now()
	for _, p := range s.Procs {
		p.TickExecute(now)
	}
	t6 := time.Now()
	for _, p := range s.Procs {
		p.TickRetire(now)
	}
	t7 := time.Now()
	for _, u := range s.LSUs {
		u.TickIssue(now)
	}
	t8 := time.Now()
	s.Cycle++
	dur[phFrontend] += t1.Sub(t0)
	dur[phDeliver] += t2.Sub(t1)
	dur[phDir] += t3.Sub(t2)
	dur[phCache] += t4.Sub(t3)
	dur[phComplete] += t5.Sub(t4)
	dur[phExecute] += t6.Sub(t5)
	dur[phRetire] += t7.Sub(t6)
	dur[phIssue] += t8.Sub(t7)
}

// record files a split drive's phases as child spans of the drive span
// and its cycle counts as counters.
func (t *tracer) record(drive, op int, ps *phaseStats) {
	at := t.spans[drive].start
	for ph, d := range ps.dur {
		t.add(phaseNames[ph], drive, op, at, d)
		at += d
	}
	t.count("sim.stepped_cycles", float64(ps.stepped))
	t.count("sim.skipped_cycles", float64(ps.skipped))
	t.count("sim.node_ticks", float64(ps.stepped*ps.nodes))
	t.count("sim.busy_nodes", float64(ps.busy))
}

// counter reads a component counter without creating it: Set.Counter
// registers missing names, which would add rows to StatsReport.
func counter(set *stats.Set, name string) uint64 {
	names := set.CounterNames()
	if i := sort.SearchStrings(names, name); i < len(names) && names[i] == name {
		return set.Counter(name).Value()
	}
	return 0
}

// countMachine adds a finished machine's component counters to the pass.
func (t *tracer) countMachine(s *sim.System) {
	var retired, entries, squashes, attempts, dropped, misses, blocked, inv, sweeps uint64
	for i := range s.Procs {
		retired += counter(s.Procs[i].Stats, "retired")
		entries += counter(s.LSUs[i].Stats, "spec_entries")
		squashes += counter(s.LSUs[i].Stats, "spec_squashes")
		attempts += counter(s.LSUs[i].Stats, "prefetch_attempts")
		dropped += counter(s.Caches[i].Stats, "prefetch_dropped")
		misses += counter(s.Caches[i].Stats, "misses")
		blocked += counter(s.Caches[i].Stats, "mshr_blocked")
	}
	for _, d := range s.Dirs {
		inv += counter(d.Stats, "invalidations")
		sweeps += counter(d.Stats, "coarse_inv_sweeps")
	}
	t.count("cpu.retired", float64(retired))
	t.count("core.spec_entries", float64(entries))
	t.count("core.spec_squashes", float64(squashes))
	t.count("core.prefetch_attempts", float64(attempts))
	t.count("core.prefetch_dropped", float64(dropped))
	t.count("cache.misses", float64(misses))
	t.count("cache.mshr_blocked", float64(blocked))
	t.count("coherence.invalidations", float64(inv))
	t.count("coherence.coarse_inv_sweeps", float64(sweeps))
	t.count("network.messages", float64(s.Net.MessagesSent))
	if ms, ok := s.Net.Topology().(*network.Mesh); ok {
		t.count("network.hops", float64(ms.HopsTraveled))
		t.count("network.link_waits", float64(ms.LinkWaits))
	}
}

// parReport extracts the key=value counters of a parsim scheduler report
// (System.ParReport), summing keys that repeat across its lines.
func parReport(rep string) map[string]float64 {
	out := map[string]float64{}
	for _, f := range strings.Fields(rep) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		if n, err := strconv.ParseFloat(v, 64); err == nil {
			out[k] += n
		}
	}
	return out
}

// countParallel adds one sharded drive's scheduler counters. The
// "parsim:" summary lines carry the engine-wide totals; the per-shard lines
// carry each shard's dispatched windows and idle tails.
func (t *tracer) countParallel(rep string) {
	head := map[string]float64{}
	var shardWindows, idle float64
	for _, l := range strings.Split(rep, "\n") {
		kv := parReport(l)
		if strings.HasPrefix(l, "parsim:") {
			for k, v := range kv {
				head[k] += v
			}
			continue
		}
		shardWindows += kv["windows"]
		idle += kv["idle_tails"]
	}
	engine := 0.0 // the engine declined; System.Run stepped sequentially
	switch {
	case strings.Contains(rep, "engine=optimistic"):
		engine = 2
	case rep != "":
		engine = 1
	}
	t.count("parsim.engine_sum", engine)
	t.count("parsim.sharded_ops", 1)
	t.count("parsim.windows", head["windows"])
	t.count("parsim.shard_steps", head["shard_steps"])
	t.count("parsim.rollbacks", head["rollbacks"])
	t.count("parsim.replayed_cycles", head["replayed_cycles"])
	t.count("parsim.shard_windows", shardWindows)
	t.count("parsim.idle_tails", idle)
}
