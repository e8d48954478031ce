package main

import "time"

// layerMetric is one per-layer metric the traced run reports.
type layerMetric struct {
	name, unit, better string
}

// perLayer lists the per-layer metrics in BENCHMARK.json order. Times are
// self times of the spans the benchmark records around its calls into each
// layer; counts come from the components' own counters on the machines the
// benchmark steps with the per-phase drive.
var perLayer = []layerMetric{
	{"sim.build_s", "s", "lower"},
	{"sim.build_alloc_mb", "MB", "lower"},
	{"sim.run_s", "s", "lower"},
	{"sim.run_alloc_mb", "MB", "lower"},
	{"sim.simcycles_per_s", "1/s", "higher"},
	{"sim.stepped_cycles", "count", "lower"},
	{"sim.skipped_cycles", "count", "higher"},
	{"sim.node_ticks", "count", "lower"},
	{"sim.busy_node_ratio", "ratio", "higher"},
	{"sim.horizon_s", "s", "lower"},
	{"cpu.tick_s", "s", "lower"},
	{"cpu.retired", "count", "higher"},
	{"core.tick_s", "s", "lower"},
	{"core.spec_squash_ratio", "ratio", "lower"},
	{"core.prefetch_drop_ratio", "ratio", "lower"},
	{"cache.tick_s", "s", "lower"},
	{"cache.misses", "count", "lower"},
	{"cache.mshr_blocked", "count", "lower"},
	{"coherence.tick_s", "s", "lower"},
	{"coherence.invalidations", "count", "lower"},
	{"coherence.coarse_inv_sweeps", "count", "lower"},
	{"network.deliver_s", "s", "lower"},
	{"network.messages", "count", "lower"},
	{"network.hops", "count", "lower"},
	{"network.link_waits", "count", "lower"},
	{"parsim.run_s", "s", "lower"},
	{"parsim.speedup", "ratio", "higher"},
	{"parsim.engine", "code", "lower"},
	{"parsim.windows", "count", "lower"},
	{"parsim.shard_steps", "count", "lower"},
	{"parsim.idle_tail_ratio", "ratio", "lower"},
	{"parsim.rollbacks", "count", "lower"},
	{"parsim.replayed_cycles", "count", "lower"},
	{"snapshot.encode_s", "s", "lower"},
	{"snapshot.decode_s", "s", "lower"},
	{"snapshot.restore_s", "s", "lower"},
	{"snapshot.bytes", "count", "lower"},
	{"runner.overhead_s", "s", "lower"},
	{"runner.warm_hit_ratio", "ratio", "higher"},
	{"runner.op_ms_p50", "ms", "lower"},
	{"runner.op_ms_p90", "ms", "lower"},
	{"runner.ops", "count", "higher"},
	{"conformance.exact_s", "s", "lower"},
	{"conformance.legacy_s", "s", "lower"},
	{"conformance.cells_s", "s", "lower"},
	{"conformance.cells", "count", "higher"},
	{"conformance.relaxed", "count", "higher"},
	{"farm.overhead_s", "s", "lower"},
	{"farm.leases", "count", "lower"},
	{"farm.checkpoints", "count", "lower"},
	{"farm.warm_fetches", "count", "lower"},
	{"farm.reassigned", "count", "lower"},
	{"farm.drain_s", "s", "lower"},
	{"trace.overhead_s", "s", "lower"},
	{"trace.unsplit_ops", "count", "lower"},
}

// nextPass starts a new pass's span range and counters.
func (t *tracer) nextPass() {
	t.passBase = len(t.spans)
	t.counters = map[string]float64{}
	t.passUnsplit = 0
}

// layerMetrics derives the per-layer metrics of the current pass from its
// spans and counters; refs carries what the untraced reference pass
// measured (runner-pool figures, the untraced sequential drive time).
func layerMetrics(t *tracer, refs map[string]float64) map[string]float64 {
	spans := t.spans[t.passBase:]
	self := selfTimes(spans, t.passBase)
	total := map[string]time.Duration{}
	for _, s := range spans {
		total[s.name] += s.end - s.start
	}
	c := t.counters
	sec := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += self[n]
		}
		return d.Seconds()
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	runS := total["sim.drive"].Seconds()
	parS := total["parsim.run"].Seconds()
	exact, legacy := total["conformance.exact"].Seconds(), total["conformance.legacy"].Seconds()
	m := map[string]float64{
		"sim.build_s":         sec("sim.build"),
		"sim.build_alloc_mb":  c["sim.build_alloc_bytes"] / 1e6,
		"sim.run_s":           runS,
		"sim.run_alloc_mb":    c["sim.run_alloc_bytes"] / 1e6,
		"sim.simcycles_per_s": ratio(c["sim.cycles"], runS),
		"sim.stepped_cycles":  c["sim.stepped_cycles"],
		"sim.skipped_cycles":  c["sim.skipped_cycles"],
		"sim.node_ticks":      c["sim.node_ticks"],
		"sim.busy_node_ratio": ratio(c["sim.busy_nodes"], c["sim.node_ticks"]),
		"sim.horizon_s":       sec("sim.horizon"),

		"cpu.tick_s":                  sec("cpu.frontend", "cpu.execute", "cpu.retire"),
		"cpu.retired":                 c["cpu.retired"],
		"core.tick_s":                 sec("core.complete", "core.issue"),
		"core.spec_squash_ratio":      ratio(c["core.spec_squashes"], c["core.spec_entries"]),
		"core.prefetch_drop_ratio":    ratio(c["core.prefetch_dropped"], c["core.prefetch_attempts"]),
		"cache.tick_s":                sec("cache.tick"),
		"cache.misses":                c["cache.misses"],
		"cache.mshr_blocked":          c["cache.mshr_blocked"],
		"coherence.tick_s":            sec("coherence.tick"),
		"coherence.invalidations":     c["coherence.invalidations"],
		"coherence.coarse_inv_sweeps": c["coherence.coarse_inv_sweeps"],
		"network.deliver_s":           sec("network.deliver"),
		"network.messages":            c["network.messages"],
		"network.hops":                c["network.hops"],
		"network.link_waits":          c["network.link_waits"],

		"parsim.run_s":           parS,
		"parsim.speedup":         ratio(refs[meshSeqRun], parS),
		"parsim.engine":          ratio(c["parsim.engine_sum"], c["parsim.sharded_ops"]),
		"parsim.windows":         c["parsim.windows"],
		"parsim.shard_steps":     c["parsim.shard_steps"],
		"parsim.idle_tail_ratio": ratio(c["parsim.idle_tails"], c["parsim.shard_windows"]),
		"parsim.rollbacks":       c["parsim.rollbacks"],
		"parsim.replayed_cycles": c["parsim.replayed_cycles"],

		"snapshot.encode_s":  total["snapshot.encode"].Seconds(),
		"snapshot.decode_s":  total["snapshot.decode"].Seconds(),
		"snapshot.restore_s": total["snapshot.restore"].Seconds(),
		"snapshot.bytes":     c["snapshot.bytes"],

		"runner.overhead_s":     refs["runner.overhead_s"],
		"runner.warm_hit_ratio": refs["runner.warm_hit_ratio"],
		"runner.op_ms_p50":      refs["runner.op_ms_p50"],
		"runner.op_ms_p90":      refs["runner.op_ms_p90"],
		"runner.ops":            refs["runner.ops"],

		"conformance.exact_s":  exact,
		"conformance.legacy_s": legacy,
		"conformance.cells_s":  total["conformance.check"].Seconds() - exact - legacy,
		"conformance.cells":    c["conformance.cells"],
		"conformance.relaxed":  c["conformance.relaxed"],

		"farm.overhead_s":   total["farm.run"].Seconds() - total["farm.pool"].Seconds(),
		"farm.leases":       c["farm.leases"],
		"farm.checkpoints":  c["farm.checkpoints"],
		"farm.warm_fetches": c["farm.warm_fetches"],
		"farm.reassigned":   c["farm.reassigned"],
		"farm.drain_s":      c["farm.drain_s"],
		"trace.unsplit_ops": float64(t.passUnsplit),
	}
	return m
}
