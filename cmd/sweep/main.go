// Command sweep runs the evaluation experiments (DESIGN.md rows E1-E16)
// and prints their result tables. Each experiment is a list of independent
// deterministic simulations; sweep fans them out across a bounded worker
// pool (internal/runner) and reassembles the rows in enumeration order, so
// the output is byte-identical for every -j value.
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
//	-j N              worker-pool size (default: all CPUs)
//	-workers LIST     worker fleet: comma-separated local:N and daemon
//	                  host:port entries. Only-local lists run today's
//	                  in-process pool (local:8 == -j 8); any remote entry
//	                  starts a farm coordinator (internal/farm) that leases
//	                  jobs to the fleet and reassembles the report to the
//	                  same bytes. Remote entries dial `sweepd -worker
//	                  -listen` daemons. Farm-only companions: -listen,
//	                  -advertise, -lease-ttl, -checkpoint-every
//	-format table|json|csv
//	-out FILE         write the report to FILE instead of stdout
//	-quiet            suppress the per-job progress log on stderr
//	-dense            step every cycle (disable idle-cycle fast-forward)
//	-snapshot-cache   dedupe identical warmup phases via machine snapshots
//	                  (default true; output is byte-identical either way)
//	-protocol P       base coherence protocol, msi (default) or mesi;
//	                  experiments with their own protocol axis are unaffected
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

	"mcmsim/internal/coherence"
	"mcmsim/internal/experiments"
	"mcmsim/internal/farm"
	"mcmsim/internal/parsim"
	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run: "+strings.Join(experiments.SuiteNames(), ", ")+", or all; comma-separated lists are accepted")
		procs   = flag.Int("procs", 3, "processors for the workload experiments")
		seed    = flag.Int64("seed", 7, "workload seed")
		cpus    = flag.String("cpus", "", "comma-separated machine sizes for the scale sweep (default 16,64,256)")
		topo    = flag.String("topo", "", "interconnect for the scale sweep: mesh (default, auto-sized) or mesh:WxH")
		jobs    = flag.Int("j", runtime.NumCPU(), "worker-pool size (simulations run concurrently; <=0 means all CPUs)")
		fleet   = flag.String("workers", "", "worker fleet: comma-separated local:N and sweepd daemon host:port entries (only-local lists use the in-process pool; any remote entry runs the farm)")
		listen  = flag.String("listen", "", "farm coordinator bind address (default: an ephemeral loopback port)")
		adv     = flag.String("advertise", "", "address remote farm workers dial back (default: the listener's)")
		ttl     = flag.Duration("lease-ttl", farm.DefaultLeaseTTL, "farm: reassign a silent worker's job after this long")
		every   = flag.Uint64("checkpoint-every", 0, "farm: checkpoint measured jobs every N cycles so reassigned jobs resume mid-flight (0 = off)")
		format  = flag.String("format", "table", "output format: table, json, csv")
		out     = flag.String("out", "", "write the report to this file instead of stdout")
		quiet   = flag.Bool("quiet", false, "suppress per-job progress on stderr")
		dense   = flag.Bool("dense", false, "disable the idle-cycle fast-forward scheduler (step every cycle)")
		par     = flag.Int("par", 1, "shard each simulation across up to N goroutines (output stays byte-identical for every N)")
		snapC   = flag.Bool("snapshot-cache", true, "simulate each distinct warmup phase once and clone it via machine snapshots (output stays byte-identical either way)")
		proto   = flag.String("protocol", "msi", "base coherence protocol for experiments that do not set their own: msi or mesi")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	switch *proto {
	case "msi", "":
		sim.BaseProtocol = coherence.ProtoInvalidate
	case "mesi":
		sim.BaseProtocol = coherence.ProtoMESI
	default:
		fmt.Fprintf(os.Stderr, "sweep: unknown -protocol %q (want msi or mesi)\n", *proto)
		os.Exit(1)
	}
	sim.ForceDense = *dense
	sim.ParWorkers = *par
	if *par > 1 {
		// Shard workers and job workers share one machine: give the shard
		// engines only the cores the job pool is not already claiming, so
		// `-j 8 -par 8` degrades to per-simulation sequential runs instead
		// of oversubscribing 64 goroutines. Each running job contributes its
		// own goroutine on top of this extra-worker budget.
		parsim.SetWorkerBudget(runtime.NumCPU() - effectiveWorkers(*jobs, runtime.NumCPU()))
	}
	params := experiments.Params{Procs: *procs, Seed: *seed, ScaleTopo: *topo}
	if *cpus != "" {
		var err error
		if params.ScaleCPUs, err = parseCPUList(*cpus); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
		}
	}
	if err := validateScaleMachines(params); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
	localN, invites, err := parseWorkers(*fleet)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
	if *fleet != "" && len(invites) == 0 && *listen == "" {
		// Only local:N entries: the fleet is this process, so the farm
		// machinery buys nothing — degrade to the classic pool at that width.
		*jobs = localN
	}
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
	if len(invites) > 0 || *listen != "" {
		err = runFarm(*exp, params, *proto, *par, *dense, localN, invites,
			*listen, *adv, *ttl, *every, *format, *out, *quiet)
	} else {
		err = run(*exp, params, *jobs, *format, *out, *quiet, *snapC, *par)
	}
	if err != nil {
		stopProf()
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
	stopProf()
}

// parseWorkers splits a -workers list into the local worker count and the
// remote daemon addresses to invite.
func parseWorkers(s string) (local int, invites []string, err error) {
	if s == "" {
		return 0, nil, nil
	}
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if strings.HasPrefix(f, "local:") {
			n, err := strconv.Atoi(strings.TrimPrefix(f, "local:"))
			if err != nil || n < 0 {
				return 0, nil, fmt.Errorf("bad -workers entry %q (want local:N or host:port)", f)
			}
			local += n
			continue
		}
		if !strings.Contains(f, ":") {
			return 0, nil, fmt.Errorf("bad -workers entry %q (want local:N or host:port)", f)
		}
		invites = append(invites, f)
	}
	return local, invites, nil
}

// runFarm executes the selected sweeps on a farm coordinator instead of
// the in-process pool: local:N workers attach over loopback, remote
// entries are invited sweepd daemons. The report is byte-identical to
// run()'s for the same flags — `make differential` gates it.
func runFarm(exp string, params experiments.Params, proto string, par int, dense bool, localN int, invites []string, listen, advertise string, ttl time.Duration, every uint64, format, out string, quiet bool) error {
	if err := runner.CheckFormat(format); err != nil {
		return err
	}
	spec := farm.JobSpec{
		Kind:      "sweep",
		Protocol:  proto,
		Par:       par,
		Dense:     dense,
		Procs:     params.Procs,
		Seed:      params.Seed,
		ScaleCPUs: params.ScaleCPUs,
		ScaleTopo: params.ScaleTopo,
	}
	if exp != "all" {
		for _, name := range strings.Split(exp, ",") {
			spec.Exps = append(spec.Exps, strings.TrimSpace(name))
		}
	}
	opts := farm.Options{
		Listen:          listen,
		Advertise:       advertise,
		LocalWorkers:    localN,
		Invite:          invites,
		LeaseTTL:        ttl,
		CheckpointEvery: every,
		OnWorkerError:   func(name string, err error) { fmt.Fprintf(os.Stderr, "sweep: worker %s: %v\n", name, err) },
	}
	if !quiet {
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
		return err
	}
	rows, err := runner.Rows(results)
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "%d jobs in %s (farm: %d workers, %d reassigned, %d resumed, %d warmups built for %d keys)\n",
			stats.Completed, time.Since(start).Round(time.Millisecond),
			stats.Workers, stats.Reassigned, stats.Resumed, stats.WarmBuilds, stats.WarmKeys)
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

func run(exp string, params experiments.Params, workers int, format, out string, quiet bool, snapCache bool, par int) error {
	sweeps, err := selectSweeps(exp)
	if err != nil {
		return err
	}
	// Reject a bad -format before any simulation runs; -exp all is seconds
	// of work that would otherwise be thrown away on a typo.
	if err := runner.CheckFormat(format); err != nil {
		return err
	}

	// Enumerate every selected sweep's jobs into one list so a single
	// worker pool drains them all; remember each sweep's slice bounds to
	// partition the results again (job order is preserved by the runner).
	var all []runner.Job
	bounds := make([][2]int, len(sweeps))
	for i, s := range sweeps {
		js := s.Jobs(params)
		bounds[i] = [2]int{len(all), len(all) + len(js)}
		all = append(all, js...)
	}

	opts := runner.Options{Workers: workers}
	if snapCache {
		opts.WarmupCache = runner.NewWarmupCache()
	}
	if par > 1 {
		// The static budget split above assumed every job worker stays
		// busy; as the queue drains, each idling worker hands its CPU share
		// to the shard engines of the simulations still running.
		opts.OnWorkerIdle = func() { parsim.AddWorkerBudget(1) }
	}
	if !quiet {
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
	results := runner.Run(all, opts)
	rows, err := runner.Rows(results)
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "%d jobs in %s (%d workers)\n",
			len(all), time.Since(start).Round(time.Millisecond), effectiveWorkers(workers, len(all)))
	}

	tables := make([]runner.Table, len(sweeps))
	for i, s := range sweeps {
		tables[i] = runner.Table{Name: s.Name, Rows: rows[bounds[i][0]:bounds[i][1]]}
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

// selectSweeps resolves the -exp argument ("all", one name, or a
// comma-separated list) against the suite registry.
func selectSweeps(exp string) ([]experiments.Sweep, error) {
	if exp == "all" {
		return experiments.Suite(), nil
	}
	var sweeps []experiments.Sweep
	for _, name := range strings.Split(exp, ",") {
		name = strings.TrimSpace(name)
		s, ok := experiments.SweepByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (want one of %s, or all)",
				name, strings.Join(experiments.SuiteNames(), ", "))
		}
		sweeps = append(sweeps, s)
	}
	return sweeps, nil
}

// parseCPUList parses a comma-separated list of machine sizes.
func parseCPUList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -cpus entry %q (want positive integers, e.g. 16,64,256)", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// validateScaleMachines rejects a scale-sweep machine shape that cannot be
// built before any simulation runs (the scale sweep itself would panic).
func validateScaleMachines(p experiments.Params) error {
	cpus, topo := p.ScaleCPUs, p.ScaleTopo
	if len(cpus) == 0 {
		cpus = experiments.ScaleCPUCounts
	}
	if topo == "" {
		topo = "mesh"
	}
	for _, n := range cpus {
		if err := sim.ValidateTopo(topo, n); err != nil {
			return err
		}
	}
	return nil
}

// effectiveWorkers mirrors the runner's worker-count clamping for the
// summary line.
func effectiveWorkers(requested, jobs int) int {
	if requested <= 0 {
		requested = runtime.NumCPU()
	}
	if requested > jobs {
		requested = jobs
	}
	return requested
}
