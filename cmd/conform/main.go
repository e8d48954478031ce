// Command conform is the model-conformance fuzzing driver: it generates
// seeded random litmus programs, computes each program's exhaustive
// allowed-outcome set per consistency model with the reference oracle,
// runs the program through the simulator across the full model x
// technique x timing grid, and checks the paper's invariants — outcome
// containment per model, the §6 detector's zero-detections-implies-SC
// certificate, and fast-forward/dense equivalence (see
// internal/conformance).
//
//	conform -seed 1 -n 256        check 256 programs from seed 1
//	conform -procs 3 -ops 4       force 3 processors, up to 4 ops each
//	conform -cpus 16 -topo mesh   run every cell on a padded 16-CPU mesh
//
// Flags:
//
//	-seed N   first generator seed (programs use seed..seed+n-1)
//	-n N      number of programs
//	-procs N  processors per program (0 = random 2-3)
//	-ops N    max ops per processor (0 = default 5)
//	-cpus N   pad the machine to N processors (extra CPUs halt at once;
//	          the oracle stays on the program's own processors)
//	-topo T   interconnect: uniform (default), mesh, or mesh:WxH
//	-j N      worker-pool size (<=0 means all CPUs)
//	-quick    paper timing only (the fuzz target's reduced grid)
//	-protocol coherence-protocol axis: both (default), msi, or mesi
//	-quiet    suppress the progress line on stderr
//	-out FILE write the report to FILE instead of stdout
//
// Fleet flags, shared with cmd/sweep: -workers LIST (comma-separated
// local:N in-process workers and host:port addresses of `sweepd -listen`
// daemons), -lease-ttl, -checkpoint-every. A list with a daemon entry runs
// the batch on a farm (internal/farm) whose coordinator dials each
// daemon; the report is byte-identical to the local run's. A list of
// local:N entries alone is an error: -j sizes the in-process pool.
//
// Any violation is minimized to a 1-minimal reproducer and printed with
// the failing cell, the observed outcome, and the oracle's allowed set;
// the exit status is 1. Output is deterministic for every -j value: wall
// time appears only in the summary line on stderr. Every cell runs on the
// sequential wake-scheduled loop; the sharded engine's parity with it is a
// Go test (internal/parsim, TestParallelEngineConformParity).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"mcmsim/internal/conformance"
	"mcmsim/internal/farm"
	"mcmsim/internal/runner"
)

func main() {
	var (
		seed  = flag.Int64("seed", 1, "first generator seed")
		n     = flag.Int("n", 64, "number of programs to check")
		procs = flag.Int("procs", 0, "processors per program (0 = random 2-3)")
		ops   = flag.Int("ops", 0, "max operations per processor (0 = default)")
		jobs  = flag.Int("j", runtime.NumCPU(), "worker-pool size (<=0 means all CPUs)")
		quick = flag.Bool("quick", false, "paper timing only instead of the full timing axis")
		cpus  = flag.Int("cpus", 0, "pad the machine to this many processors (extra CPUs halt immediately; 0 = program size)")
		topo  = flag.String("topo", "", "interconnect for every cell: uniform (default), mesh, or mesh:WxH")
		proto = flag.String("protocol", "both", "coherence-protocol axis: both, msi, or mesi")
		quiet = flag.Bool("quiet", false, "suppress progress on stderr")
		outF  = flag.String("out", "", "write the report to this file instead of stdout")
	)
	fleet := farm.FleetFlags(flag.CommandLine)
	flag.Parse()
	spec := farm.JobSpec{
		Kind: "conform", Seed: *seed, N: *n, Procs: *procs, Ops: *ops,
		Quick: *quick, PadCPUs: *cpus, Topo: *topo, Protocol: *proto,
	}
	params, opts, err := farm.ConformOptions(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "conform:", err)
		os.Exit(2)
	}
	pool := runner.Options{Workers: *jobs}
	if !*quiet {
		pool.OnProgress = func(p runner.Progress) {
			fmt.Fprintf(os.Stderr, "\rconform: %d/%d programs", p.Done, p.Total)
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	start := time.Now()
	results, summary, err := fleet.Run(spec, pool)
	if err != nil {
		fmt.Fprintln(os.Stderr, "conform:", err)
		os.Exit(2)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "%d programs in %s (%s)\n", len(results), time.Since(start).Round(time.Millisecond), summary)
	}
	rep := conformance.BatchReport(spec.Seed, spec.N, params, results)

	w := os.Stdout
	if *outF != "" {
		f, err := os.Create(*outF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "conform:", err)
			os.Exit(2)
		}
		defer f.Close()
		w = f
	}
	if !conformance.Summarize(w, rep, spec.Seed, spec.N, opts) {
		os.Exit(1)
	}
}
