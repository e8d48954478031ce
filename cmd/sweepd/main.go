// Command sweepd runs the distributed sweep farm: a coordinator that
// serves a job enumeration to a pull-based worker fleet, or a worker that
// attaches to one. The farm's report is byte-identical to the same
// workload run locally (`sweep -j N`, `conform`) — the coordinator leases
// job indices into a spec both sides re-enumerate, reassembles results in
// enumeration order, ships warmup snapshots content-addressed, and
// resumes reassigned jobs from interval checkpoints (see internal/farm).
//
// Coordinator (default mode): serve a sweep and print its report.
//
//	sweepd -listen :7333 -exp equalization -local 2
//	sweepd -listen :7333 -exp all -local 0        # wait for remote workers
//	sweepd -listen :7333 -conform -n 64 -quick    # conformance batch
//
// Worker: attach to a coordinator and pull jobs until the farm drains.
//
//	sweepd -worker -coordinator host:7333 -j 8
//
// Worker daemon: listen for coordinators' invitations (cmd/sweep -workers
// host:port entries dial this).
//
//	sweepd -worker -listen :7334 -j 8
//
// Coordinator flags mirror cmd/sweep (-exp, -procs, -seed, -cpus, -topo,
// -protocol, -par, -dense, -format, -out, -quiet) and
// cmd/conform (-conform selects the batch; -seed, -n, -ops, -quick,
// -pad-cpus then apply; the report matches `conform -notime`). Farm
// flags:
//
//	-listen ADDR           coordinator (or worker daemon) bind address
//	-advertise ADDR        address remote workers dial back (default: -listen)
//	-local N               in-process loopback workers to attach
//	-invite LIST           comma-separated worker daemons to invite
//	-lease-ttl D           reassign a silent worker's job after D (default 1m)
//	-checkpoint-every N    interval checkpoints every N cycles (0 = off)
//
// Exit status: 0 on a clean report, 1 on failure (or, with -conform, on
// any violation) — the same contract as the local commands.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"mcmsim/internal/conformance"
	"mcmsim/internal/farm"
	"mcmsim/internal/runner"
)

func main() {
	var (
		worker  = flag.Bool("worker", false, "run as a worker instead of a coordinator")
		coord   = flag.String("coordinator", "", "worker mode: coordinator address to attach to")
		listen  = flag.String("listen", "", "bind address (coordinator, or worker daemon awaiting invites)")
		adv     = flag.String("advertise", "", "address remote workers dial back (default: the listener's)")
		local   = flag.Int("local", runtime.NumCPU(), "in-process loopback workers")
		invite  = flag.String("invite", "", "comma-separated worker daemons to invite")
		jobs    = flag.Int("j", runtime.NumCPU(), "worker mode: concurrent worker loops")
		name    = flag.String("name", hostname(), "worker name prefix in coordinator logs")
		ttl     = flag.Duration("lease-ttl", farm.DefaultLeaseTTL, "reassign a silent worker's job after this long")
		every   = flag.Uint64("checkpoint-every", 0, "checkpoint Measure jobs every N cycles (0 = off)")
		conform = flag.Bool("conform", false, "serve a conformance batch instead of a sweep")

		// Sweep spec (mirrors cmd/sweep).
		exp   = flag.String("exp", "all", "experiments to serve (comma-separated, or all)")
		procs = flag.Int("procs", 3, "processors for the workload experiments (conform: 0 = random 2-3)")
		seed  = flag.Int64("seed", 7, "workload seed (conform: first generator seed, default 1)")
		cpus  = flag.String("cpus", "", "comma-separated machine sizes for the scale sweep")
		topo  = flag.String("topo", "", "scale-sweep interconnect (conform: every cell's interconnect)")
		proto = flag.String("protocol", "msi", "base coherence protocol: msi or mesi (conform: both, msi, or mesi)")
		par   = flag.Int("par", 1, "shard each simulation across up to N goroutines")
		dense = flag.Bool("dense", false, "disable the idle-cycle fast-forward scheduler")

		// Conform spec extras (mirror cmd/conform).
		n       = flag.Int("n", 64, "conform: number of programs")
		ops     = flag.Int("ops", 0, "conform: max operations per processor (0 = default)")
		quick   = flag.Bool("quick", false, "conform: paper timing only")
		padCPUs = flag.Int("pad-cpus", 0, "conform: pad the machine to this many processors")

		format = flag.String("format", "table", "sweep output format: table, json, csv")
		out    = flag.String("out", "", "write the report to this file instead of stdout")
		quiet  = flag.Bool("quiet", false, "suppress progress on stderr")
	)
	flag.Parse()
	// -conform shifts three defaults to cmd/conform's: the first generator
	// seed (1, not the workload seed 7), the protocol axis (both, not the
	// sweep's msi), and the processor count (0 = random 2-3, not the
	// workload experiments' 3). Explicit flags always win.
	seedSet, protoSet, procsSet := false, false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			seedSet = true
		case "protocol":
			protoSet = true
		case "procs":
			procsSet = true
		}
	})
	if *conform && !seedSet {
		*seed = 1
	}
	if *conform && !protoSet {
		*proto = "both"
	}
	if *conform && !procsSet {
		*procs = 0
	}

	if *worker {
		if err := runWorker(*coord, *listen, *name, *jobs); err != nil {
			fmt.Fprintln(os.Stderr, "sweepd:", err)
			os.Exit(1)
		}
		return
	}

	spec, err := buildSpec(*conform, *exp, *procs, *seed, *cpus, *topo, *proto, *par, *dense, *n, *ops, *quick, *padCPUs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
	opts := farm.Options{
		Listen:          *listen,
		Advertise:       *adv,
		LocalWorkers:    *local,
		LeaseTTL:        *ttl,
		CheckpointEvery: *every,
		OnWorkerError:   func(name string, err error) { fmt.Fprintf(os.Stderr, "sweepd: worker %s: %v\n", name, err) },
	}
	if *invite != "" {
		opts.Invite = strings.Split(*invite, ",")
	}
	if !*quiet {
		opts.OnProgress = func(p runner.Progress) {
			status := fmt.Sprintf("cycles=%d", p.Cycles)
			if p.Err != nil {
				status = "FAILED"
			}
			fmt.Fprintf(os.Stderr, "[%*d/%d] %-40s %s wall=%s\n",
				len(fmt.Sprint(p.Total)), p.Done, p.Total, p.Name, status, p.Wall.Round(time.Microsecond))
		}
	}

	start := time.Now()
	results, stats, err := farm.Run(spec, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "%d jobs in %s (%d workers, %d reassigned, %d resumed, %d warmups built for %d keys)\n",
			stats.Completed, time.Since(start).Round(time.Millisecond),
			stats.Workers, stats.Reassigned, stats.Resumed, stats.WarmBuilds, stats.WarmKeys)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweepd:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if *conform {
		params, copts, err := farm.ConformOptions(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweepd:", err)
			os.Exit(1)
		}
		rep := conformance.BatchReport(spec.CSeed, spec.N, params, results)
		// Wall time is omitted (like conform -notime): the farm report is
		// byte-comparable against a local run by design.
		if !conformance.Summarize(w, rep, spec.CSeed, spec.N, copts, -1) {
			os.Exit(1)
		}
		return
	}
	if err := writeSweepReport(w, spec, results, *format); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

// buildSpec assembles the farm spec from the flag values.
func buildSpec(conform bool, exp string, procs int, seed int64, cpus, topo, proto string, par int, dense bool, n, ops int, quick bool, padCPUs int) (farm.JobSpec, error) {
	spec := farm.JobSpec{
		Protocol: proto,
		Par:      par,
		Dense:    dense,
	}
	if proto == "both" && !conform {
		return spec, fmt.Errorf("-protocol both is a conformance axis; sweeps take msi or mesi")
	}
	if conform {
		spec.Kind = "conform"
		spec.CSeed = seed
		spec.N = n
		spec.CProcs = procs
		spec.Ops = ops
		spec.Quick = quick
		spec.PadCPUs = padCPUs
		spec.Topo = topo
		spec.Protocols = proto
		// The conformance grid sets each cell's protocol itself; the
		// process-global default must stay untouched.
		spec.Protocol = "msi"
		return spec, nil
	}
	spec.Kind = "sweep"
	spec.Procs = procs
	spec.Seed = seed
	spec.ScaleTopo = topo
	if exp != "all" {
		for _, name := range strings.Split(exp, ",") {
			spec.Exps = append(spec.Exps, strings.TrimSpace(name))
		}
	}
	if cpus != "" {
		var err error
		if spec.ScaleCPUs, err = parseCPUList(cpus); err != nil {
			return spec, err
		}
	}
	return spec, nil
}

// writeSweepReport partitions the results per sweep and renders them with
// the shared formatters, exactly as cmd/sweep does.
func writeSweepReport(w *os.File, spec farm.JobSpec, results []runner.Result, format string) error {
	rows, err := runner.Rows(results)
	if err != nil {
		return err
	}
	tables, err := farm.SweepTables(spec, rows)
	if err != nil {
		return err
	}
	return runner.WriteReport(w, format, tables)
}

// runWorker runs worker mode: attach to a coordinator, or listen as a
// daemon for invitations.
func runWorker(coord, listen, name string, jobs int) error {
	switch {
	case coord != "" && listen != "":
		return fmt.Errorf("worker mode takes -coordinator or -listen, not both")
	case coord != "":
		errCh := make(chan error, jobs)
		for i := 0; i < jobs; i++ {
			go func(i int) {
				errCh <- (&farm.Worker{Name: fmt.Sprintf("%s-%d", name, i)}).Run(coord)
			}(i)
		}
		var first error
		for i := 0; i < jobs; i++ {
			if err := <-errCh; err != nil && first == nil {
				first = err
			}
		}
		return first
	case listen != "":
		d := &farm.Daemon{Name: name + "-", Workers: jobs, Logf: log.Printf}
		return d.ListenAndServe(listen)
	default:
		return fmt.Errorf("worker mode needs -coordinator ADDR (attach) or -listen ADDR (await invites)")
	}
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "worker"
	}
	return h
}

// parseCPUList parses a comma-separated list of machine sizes.
func parseCPUList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &n); err != nil || n < 1 {
			return nil, fmt.Errorf("bad -cpus entry %q (want positive integers, e.g. 16,64,256)", f)
		}
		out = append(out, n)
	}
	return out, nil
}
