package farm

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mcmsim/internal/runner"
)

// Fleet is where a front end (cmd/sweep, cmd/conform) runs its spec: the
// in-process pool, or a farm of in-process workers and sweepd daemons that
// the coordinator dials. It is parsed from the fleet flags both front ends
// register through FleetFlags.
type Fleet struct {
	workers         string
	leaseTTL        time.Duration
	checkpointEvery uint64
}

// FleetFlags registers the fleet flags on fs: -workers, -lease-ttl and
// -checkpoint-every.
func FleetFlags(fs *flag.FlagSet) *Fleet {
	f := &Fleet{}
	fs.StringVar(&f.workers, "workers", "", "farm worker fleet: comma-separated local:N in-process workers and host:port addresses of sweepd -listen daemons, which the coordinator dials; needs a daemon (-j sizes the in-process pool)")
	fs.DurationVar(&f.leaseTTL, "lease-ttl", DefaultLeaseTTL, "farm: reassign a silent worker's job after this long")
	fs.Uint64Var(&f.checkpointEvery, "checkpoint-every", 0, "farm: checkpoint measured jobs every N cycles so reassigned jobs resume mid-flight (0 = off)")
	return f
}

// Run executes spec on the fleet and returns the results in enumeration
// order, plus a one-line description of the executor for a progress log.
// A fleet with no -workers list is this process: the jobs run on the
// in-process pool described by pool, whose width comes from -j alone. A
// -workers list with a daemon entry runs a farm coordinator that dials
// the daemons and leases the jobs to their worker loops and to the
// local:N in-process workers. A -workers list of local:N entries alone is
// an error, since -j already sizes the pool. Either way the rows render
// to the same bytes.
func (f *Fleet) Run(spec JobSpec, pool runner.Options) (results []runner.Result, summary string, err error) {
	local, daemons, err := parseWorkers(f.workers)
	if err != nil {
		return nil, "", err
	}
	if len(daemons) == 0 {
		if f.workers != "" {
			return nil, "", fmt.Errorf("-workers %s names no sweepd daemon: size the in-process pool with -j", f.workers)
		}
		jobs, err := Enumerate(spec)
		if err != nil {
			return nil, "", err
		}
		if pool.Workers <= 0 {
			pool.Workers = runtime.NumCPU()
		}
		return runner.Run(jobs, pool), fmt.Sprintf("%d workers", min(pool.Workers, len(jobs))), nil
	}
	results, st, err := Run(spec, Options{
		LocalWorkers:    local,
		Daemons:         daemons,
		LeaseTTL:        f.leaseTTL,
		CheckpointEvery: f.checkpointEvery,
		OnProgress:      pool.OnProgress,
		OnWorkerError:   func(name string, err error) { fmt.Fprintf(os.Stderr, "farm: worker %s: %v\n", name, err) },
	})
	summary = fmt.Sprintf("farm: %d workers, %d reassigned, %d resumed", st.Workers, st.Reassigned, st.Resumed)
	return results, summary, err
}

// parseWorkers splits a -workers list into the local worker count and the
// daemon addresses to dial.
func parseWorkers(s string) (local int, daemons []string, err error) {
	if s == "" {
		return 0, nil, nil
	}
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if n, ok := strings.CutPrefix(f, "local:"); ok {
			n, err := strconv.Atoi(n)
			if err != nil || n < 0 {
				return 0, nil, fmt.Errorf("bad -workers entry %q (want local:N or host:port)", f)
			}
			local += n
			continue
		}
		if !strings.Contains(f, ":") {
			return 0, nil, fmt.Errorf("bad -workers entry %q (want local:N or host:port)", f)
		}
		daemons = append(daemons, f)
	}
	return local, daemons, nil
}
