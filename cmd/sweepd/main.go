// Command sweepd is a farm worker: it runs jobs that a coordinator —
// `sweep` or `conform` with a daemon entry in -workers, or -listen — leases
// to it, and sends the rows back (see internal/farm). Everything a job
// needs, settings included, arrives in the coordinator's spec, so a worker
// takes no workload flags.
//
// Daemon: listen for coordinators' invitations (`-workers host:port`
// entries dial this) and attach -j worker loops to each.
//
//	sweepd -listen :7334 -j 8
//
// Attach: dial one coordinator (started with -listen) and pull jobs until
// its farm drains.
//
//	sweepd -coordinator host:7333 -j 8
//
// Flags:
//
//	-listen ADDR       daemon bind address
//	-coordinator ADDR  coordinator to attach to
//	-j N               concurrent worker loops (<=0 means all CPUs; default: all CPUs)
//	-name NAME         worker name prefix in coordinator logs (default: hostname)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"mcmsim/internal/farm"
)

func main() {
	var (
		coord  = flag.String("coordinator", "", "coordinator address to attach to")
		listen = flag.String("listen", "", "daemon bind address: await coordinators' invitations")
		jobs   = flag.Int("j", runtime.NumCPU(), "concurrent worker loops (<=0 means all CPUs)")
		name   = flag.String("name", hostname(), "worker name prefix in coordinator logs")
	)
	flag.Parse()
	if *jobs <= 0 {
		*jobs = runtime.NumCPU()
	}
	if err := run(*coord, *listen, *name, *jobs); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

// run attaches to a coordinator, or listens as a daemon for invitations.
func run(coord, listen, name string, jobs int) error {
	switch {
	case coord != "" && listen != "":
		return fmt.Errorf("take -coordinator or -listen, not both")
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
		return fmt.Errorf("need -listen ADDR (await invitations) or -coordinator ADDR (attach)")
	}
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "worker"
	}
	return h
}
