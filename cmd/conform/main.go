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
//	-par N    shard each simulation across up to N goroutines
//	-quick    paper timing only (the fuzz target's reduced grid)
//	-protocol coherence-protocol axis: both (default), msi, or mesi
//	-quiet    suppress the progress line on stderr
//	-out FILE write the report to FILE instead of stdout
//	-notime   omit the elapsed-seconds figure from the OK line, making the
//	          report byte-stable (what the farm-vs-local CI diff compares)
//
// Any violation is minimized to a 1-minimal reproducer and printed with
// the failing cell, the observed outcome, and the oracle's allowed set;
// the exit status is 1. Output is deterministic for every -j value.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"mcmsim/internal/coherence"
	"mcmsim/internal/conformance"
	"mcmsim/internal/parsim"
	"mcmsim/internal/sim"
)

func main() {
	var (
		seed   = flag.Int64("seed", 1, "first generator seed")
		n      = flag.Int("n", 64, "number of programs to check")
		procs  = flag.Int("procs", 0, "processors per program (0 = random 2-3)")
		ops    = flag.Int("ops", 0, "max operations per processor (0 = default)")
		jobs   = flag.Int("j", runtime.NumCPU(), "worker-pool size (<=0 means all CPUs)")
		par    = flag.Int("par", 1, "shard each simulation across up to N goroutines (verdicts are identical for every N)")
		quick  = flag.Bool("quick", false, "paper timing only instead of the full timing axis")
		cpus   = flag.Int("cpus", 0, "pad the machine to this many processors (extra CPUs halt immediately; 0 = program size)")
		topo   = flag.String("topo", "", "interconnect for every cell: uniform (default), mesh, or mesh:WxH")
		proto  = flag.String("protocol", "both", "coherence-protocol axis: both, msi, or mesi")
		quiet  = flag.Bool("quiet", false, "suppress progress on stderr")
		outF   = flag.String("out", "", "write the report to this file instead of stdout")
		notime = flag.Bool("notime", false, "omit elapsed seconds from the OK line (byte-stable output)")
	)
	flag.Parse()
	var protocols []coherence.Protocol
	switch *proto {
	case "both", "":
	case "msi":
		protocols = []coherence.Protocol{coherence.ProtoInvalidate}
	case "mesi":
		protocols = []coherence.Protocol{coherence.ProtoMESI}
	default:
		fmt.Fprintf(os.Stderr, "conform: unknown -protocol %q (want both, msi, or mesi)\n", *proto)
		os.Exit(2)
	}
	if *topo != "" {
		machineCPUs := *cpus
		if machineCPUs < 2 {
			machineCPUs = 2 // smallest generated program
		}
		if err := sim.ValidateTopo(*topo, machineCPUs); err != nil {
			fmt.Fprintln(os.Stderr, "conform:", err)
			os.Exit(2)
		}
	}
	sim.ParWorkers = *par
	if *par > 1 {
		// Batch workers and shard workers share the machine; the shard pool
		// gets whatever the batch pool leaves free (conformance programs are
		// tiny, so -par mainly exists for the differential gate).
		extra := runtime.NumCPU() - *jobs
		if *jobs <= 0 || *jobs > runtime.NumCPU() {
			extra = 0
		}
		parsim.SetWorkerBudget(extra)
	}

	params := conformance.Params{Procs: *procs, ProcOps: *ops}
	opts := conformance.CheckOptions{Quick: *quick, CPUs: *cpus, Topo: *topo, Protocols: protocols}

	progress := func(done, total int) {
		fmt.Fprintf(os.Stderr, "\rconform: %d/%d programs", done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
	if *quiet {
		progress = nil
	}

	start := time.Now()
	rep := conformance.CheckBatch(*seed, *n, params, *jobs, opts, progress)
	elapsed := time.Since(start)
	if *notime {
		elapsed = -1
	}

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
	if !conformance.Summarize(w, rep, *seed, *n, opts, elapsed) {
		os.Exit(1)
	}
}
