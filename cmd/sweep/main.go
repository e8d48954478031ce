// Command sweep runs the evaluation experiments (DESIGN.md rows E1-E16)
// and prints their result tables. Each experiment is a list of independent
// deterministic simulations; sweep fans them out across a bounded worker
// pool (internal/runner) and reassembles the rows in enumeration order, so
// the output is byte-identical for every -j value. Every simulation runs
// on the sequential wake-scheduled loop, and identical warmup phases are
// simulated once and cloned through machine snapshots.
//
//	sweep -exp equalization   model x technique grid (the §5 claim)
//	sweep -exp latency        miss-latency sweep, SC vs RC
//	sweep -exp contention     speculation squash rate vs write sharing
//	sweep -exp lookahead      reorder-buffer size vs technique benefit
//	sweep -exp protocol       invalidation vs update coherence
//	sweep -exp advehill       Adve-Hill SC comparator (§6)
//	sweep -exp nst            Stenstrom cacheless comparator (§6)
//	sweep -exp swprefetch     hardware vs software prefetch windows (§6)
//	sweep -exp scdetect       SC-violation detection on relaxed hardware
//	sweep -exp detection      conservative vs repeat-and-compare (§4.1)
//	sweep -exp bandwidth      home-module bandwidth and interleaving
//	sweep -exp mshr           lockup-free cache MSHR sweep (§3.2)
//	sweep -exp reissue        reissue-only correction ablation (§4.2)
//	sweep -exp warmequal      model x technique grid on warmed caches
//	sweep -exp scale          many-core mesh scale sweep, SC vs RC (E16)
//	sweep -exp all            everything, on one shared worker pool
//
// Execution and output flags:
//
//	-cpus LIST        machine sizes for the scale sweep (default 16,64,256)
//	-topo T           scale-sweep interconnect: mesh or mesh:WxH
//	-j N              in-process worker-pool size (default: all CPUs)
//	-workers LIST     farm fleet: comma-separated local:N loopback workers
//	                  and `sweepd -listen` daemon host:port entries. A
//	                  daemon entry, or -listen, starts a farm coordinator
//	                  (internal/farm) that leases jobs to the fleet and
//	                  reassembles the report to the same bytes; a list of
//	                  local:N entries alone is an error (-j sizes the
//	                  in-process pool). Farm companions: -listen,
//	                  -advertise, -lease-ttl, -checkpoint-every (shared
//	                  with cmd/conform)
//	-format table|json|csv
//	-out FILE         write the report to FILE instead of stdout
//	-quiet            suppress the per-job progress log on stderr
//	-protocol P       base coherence protocol, msi (default) or mesi;
//	                  changes results. Experiments with their own protocol
//	                  axis (E5) and E10's litmus job are unaffected
//	-cpuprofile FILE  write a pprof CPU profile
//	-memprofile FILE  write a pprof heap profile at exit
//
// Progress (jobs done/total, per-job simulated cycles and wall time) goes
// to stderr; the report goes to stdout or -out, so archived tables never
// interleave with progress lines.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mcmsim/cmd/internal/profile"
	"mcmsim/internal/experiments"
	"mcmsim/internal/farm"
	"mcmsim/internal/runner"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run: "+strings.Join(experiments.SuiteNames(), ", ")+", or all; comma-separated lists are accepted")
		procs   = flag.Int("procs", 3, "processors for the workload experiments")
		seed    = flag.Int64("seed", 7, "workload seed")
		cpus    = flag.String("cpus", "", "comma-separated machine sizes for the scale sweep (default 16,64,256)")
		topo    = flag.String("topo", "", "interconnect for the scale sweep: mesh (default, auto-sized) or mesh:WxH")
		jobs    = flag.Int("j", runtime.NumCPU(), "worker-pool size (simulations run concurrently; <=0 means all CPUs)")
		format  = flag.String("format", "table", "output format: table, json, csv")
		out     = flag.String("out", "", "write the report to this file instead of stdout")
		quiet   = flag.Bool("quiet", false, "suppress per-job progress on stderr")
		proto   = flag.String("protocol", "msi", "base coherence protocol for experiments that do not set their own: msi or mesi")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	fleet := farm.FleetFlags(flag.CommandLine)
	flag.Parse()
	spec := farm.JobSpec{Kind: "sweep", Seed: *seed, Procs: *procs, Topo: *topo, Protocol: *proto}
	if *exp != "all" {
		for _, name := range strings.Split(*exp, ",") {
			spec.Exps = append(spec.Exps, strings.TrimSpace(name))
		}
	}
	err := func() error {
		if *cpus != "" {
			var err error
			if spec.ScaleCPUs, err = parseCPUList(*cpus); err != nil {
				return err
			}
		}
		// Reject a bad -format before any simulation runs; -exp all is
		// seconds of work that would otherwise be thrown away on a typo.
		if err := runner.CheckFormat(*format); err != nil {
			return err
		}
		stopProf, err := profile.Start(*cpuProf, *memProf)
		if err != nil {
			return err
		}
		defer stopProf()
		return run(spec, fleet, *jobs, *format, *out, *quiet)
	}()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
}

// run executes the spec on the fleet — the in-process pool, or a farm
// when -workers names a daemon or -listen is set — and writes the report.
// Both executors return rows in enumeration order, so the report is
// byte-identical either way (`make differential` gates it).
func run(spec farm.JobSpec, fleet *farm.Fleet, workers int, format, out string, quiet bool) error {
	pool := runner.Options{Workers: workers, WarmupCache: runner.NewWarmupCache()}
	if !quiet {
		pool.OnProgress = func(p runner.Progress) {
			status := fmt.Sprintf("cycles=%d", p.Cycles)
			if p.Err != nil {
				status = "FAILED"
			}
			fmt.Fprintf(os.Stderr, "[%*d/%d] %-40s %s wall=%s\n",
				len(fmt.Sprint(p.Total)), p.Done, p.Total, p.Name, status, p.Wall.Round(time.Microsecond))
		}
	}
	start := time.Now()
	results, summary, err := fleet.Run(spec, pool)
	if err != nil {
		return err
	}
	rows, err := runner.Rows(results)
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "%d jobs in %s (%s)\n", len(results), time.Since(start).Round(time.Millisecond), summary)
	}
	tables, err := farm.SweepTables(spec, rows)
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return runner.WriteReport(w, format, tables)
}

// parseCPUList parses a comma-separated list of machine sizes; the spec
// rejects sizes below 1.
func parseCPUList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad -cpus entry %q (want positive integers, e.g. 16,64,256)", f)
		}
		out = append(out, n)
	}
	return out, nil
}
