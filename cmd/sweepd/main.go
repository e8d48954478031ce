// Command sweepd is a farm worker daemon: it listens for coordinators —
// `sweep` or `conform` with its address in -workers — and, on each
// connection one opens, runs -j worker loops that take the jobs the
// coordinator leases and send the rows back (see internal/farm). The
// coordinator dials; the daemon never does. Everything a job needs,
// settings included, arrives in the coordinator's spec, so a worker takes
// no workload flags.
//
//	sweepd -listen :7334 -j 8
//
// Flags:
//
//	-listen ADDR  bind address coordinators dial
//	-j N          concurrent worker loops per coordinator (<=0 means all CPUs; default: all CPUs)
//	-name NAME    worker name prefix in coordinator logs (default: hostname)
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"runtime"

	"mcmsim/internal/farm"
)

func main() {
	var (
		listen = flag.String("listen", "", "bind address coordinators dial")
		jobs   = flag.Int("j", runtime.NumCPU(), "concurrent worker loops per coordinator (<=0 means all CPUs)")
		name   = flag.String("name", hostname(), "worker name prefix in coordinator logs")
	)
	flag.Parse()
	if *jobs <= 0 {
		*jobs = runtime.NumCPU()
	}
	if err := run(*listen, *name, *jobs); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

// run serves coordinators on listen until the listener fails.
func run(listen, name string, jobs int) error {
	if listen == "" {
		return fmt.Errorf("need -listen ADDR")
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	log.Printf("worker daemon listening on %s (%d worker loops per coordinator)", ln.Addr(), jobs)
	return (&farm.Daemon{Name: name + "-", Workers: jobs, Logf: log.Printf}).Serve(ln)
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "worker"
	}
	return h
}
