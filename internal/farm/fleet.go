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
// in-process pool, or a farm of loopback workers and invited sweepd
// daemons. It is parsed from the fleet flags both front ends register
// through FleetFlags.
type Fleet struct {
	workers         string
	listen          string
	advertise       string
	leaseTTL        time.Duration
	checkpointEvery uint64
}

// FleetFlags registers the fleet flags on fs: -workers, -listen,
// -advertise, -lease-ttl and -checkpoint-every.
func FleetFlags(fs *flag.FlagSet) *Fleet {
	f := &Fleet{}
	fs.StringVar(&f.workers, "workers", "", "farm worker fleet: comma-separated local:N loopback workers and sweepd daemon host:port entries; needs a daemon entry or -listen (-j sizes the in-process pool)")
	fs.StringVar(&f.listen, "listen", "", "farm coordinator bind address (runs the farm; default: an ephemeral loopback port)")
	fs.StringVar(&f.advertise, "advertise", "", "address remote farm workers dial back (default: the listener's)")
	fs.DurationVar(&f.leaseTTL, "lease-ttl", DefaultLeaseTTL, "farm: reassign a silent worker's job after this long")
	fs.Uint64Var(&f.checkpointEvery, "checkpoint-every", 0, "farm: checkpoint measured jobs every N cycles so reassigned jobs resume mid-flight (0 = off)")
	return f
}

// Run executes spec on the fleet and returns the results in enumeration
// order, plus a one-line description of the executor for a progress log.
// A fleet with no -workers list and no -listen address is this process:
// the jobs run on the in-process pool described by pool, whose width comes
// from -j alone. A -workers list with a daemon entry, or -listen, runs a
// farm coordinator that leases the jobs to the local:N loopback workers
// and the invited daemons. A -workers list of local:N entries alone is an
// error, since -j already sizes the pool. Either way the rows render to
// the same bytes.
func (f *Fleet) Run(spec JobSpec, pool runner.Options) (results []runner.Result, summary string, err error) {
	local, invites, err := parseWorkers(f.workers)
	if err != nil {
		return nil, "", err
	}
	if len(invites) == 0 && f.listen == "" {
		if f.workers != "" {
			return nil, "", fmt.Errorf("-workers %s names no daemon and -listen is not set: size the in-process pool with -j, or add -listen to run a farm", f.workers)
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
		Listen:          f.listen,
		Advertise:       f.advertise,
		LocalWorkers:    local,
		Invite:          invites,
		LeaseTTL:        f.leaseTTL,
		CheckpointEvery: f.checkpointEvery,
		OnProgress:      pool.OnProgress,
		OnWorkerError:   func(name string, err error) { fmt.Fprintf(os.Stderr, "farm: worker %s: %v\n", name, err) },
	})
	summary = fmt.Sprintf("farm: %d workers, %d reassigned, %d resumed", st.Workers, st.Reassigned, st.Resumed)
	return results, summary, err
}

// parseWorkers splits a -workers list into the local worker count and the
// remote daemon addresses to invite.
func parseWorkers(s string) (local int, invites []string, err error) {
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
		invites = append(invites, f)
	}
	return local, invites, nil
}
