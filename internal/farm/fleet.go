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
	fs.StringVar(&f.workers, "workers", "", "worker fleet: comma-separated local:N and sweepd daemon host:port entries (only-local lists use the in-process pool; any remote entry runs the farm)")
	fs.StringVar(&f.listen, "listen", "", "farm coordinator bind address (runs the farm; default: an ephemeral loopback port)")
	fs.StringVar(&f.advertise, "advertise", "", "address remote farm workers dial back (default: the listener's)")
	fs.DurationVar(&f.leaseTTL, "lease-ttl", DefaultLeaseTTL, "farm: reassign a silent worker's job after this long")
	fs.Uint64Var(&f.checkpointEvery, "checkpoint-every", 0, "farm: checkpoint measured jobs every N cycles so reassigned jobs resume mid-flight (0 = off)")
	return f
}

// Run executes spec on the fleet and returns the results in enumeration
// order, plus a one-line description of the executor for a progress log.
// A fleet with no daemon entry and no -listen address is this process: the
// jobs run on the in-process pool described by pool, at the width of
// -workers' local:N entries if given. Otherwise a farm coordinator leases
// them to the local:N loopback workers and the invited daemons. Either way
// the rows render to the same bytes.
func (f *Fleet) Run(spec JobSpec, pool runner.Options) (results []runner.Result, summary string, err error) {
	local, invites, err := parseWorkers(f.workers)
	if err != nil {
		return nil, "", err
	}
	if len(invites) == 0 && f.listen == "" {
		jobs, err := Enumerate(spec)
		if err != nil {
			return nil, "", err
		}
		if f.workers != "" {
			pool.Workers = local
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
	summary = fmt.Sprintf("farm: %d workers, %d reassigned, %d resumed, %d warmups built for %d keys",
		st.Workers, st.Reassigned, st.Resumed, st.WarmBuilds, st.WarmKeys)
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
