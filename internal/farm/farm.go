package farm

import (
	"errors"
	"fmt"
	"net"
	"time"

	"mcmsim/internal/runner"
)

// handshakeTimeout bounds how long the coordinator waits for a worker
// connection to open, and then for its first accepted Hello. It is a
// constant of the protocol; tests shorten it to meet a silent peer
// quickly.
var handshakeTimeout = 10 * time.Second

// hangupGrace is how long a completed farm waits for its workers to see
// the completion and hang up before it closes their connections.
const hangupGrace = 2 * time.Second

// Options configures a one-call farm run.
type Options struct {
	// LocalWorkers is how many in-process workers to run, each on its own
	// in-memory connection.
	LocalWorkers int
	// Daemons lists sweepd worker daemons (host:port) to dial.
	Daemons []string
	// LeaseTTL and CheckpointEvery parameterize NewCoordinator.
	LeaseTTL        time.Duration
	CheckpointEvery uint64
	// OnProgress observes accepted completions (completion order).
	OnProgress func(runner.Progress)
	// OnWorkerError observes every worker failure before the farm
	// completes: each Hello the coordinator refuses, named by its worker,
	// and each connection that fails to open, to greet in time or to stay
	// up, named by its daemon address or local worker name. nil logs
	// nowhere.
	OnWorkerError func(name string, err error)
}

// Run executes the spec on a farm assembled from the options and returns
// the results in enumeration order plus the coordinator's final counters.
// The coordinator opens every worker connection: an in-memory pipe per
// local worker and one TCP connection per daemon, whose worker loops share
// it. With only local workers this is semantically `runner.Run` with
// extra steps — and byte-identical output, which `make differential`
// gates. Run never waits without bound: once every connection has closed
// with the farm incomplete, it returns an error naming the first
// connection's failure.
func Run(spec JobSpec, opts Options) ([]runner.Result, Stats, error) {
	coord, err := NewCoordinator(spec, opts.LeaseTTL, opts.CheckpointEvery)
	if err != nil {
		return nil, Stats{}, err
	}
	defer coord.Stop()
	local := max(opts.LocalWorkers, 0)
	links := local + len(opts.Daemons)
	if links == 0 {
		return nil, Stats{}, fmt.Errorf("farm: no workers: need LocalWorkers or Daemons")
	}
	report := func(name string, err error) {
		if opts.OnWorkerError != nil {
			opts.OnWorkerError(name, err)
		}
	}
	coord.OnProgress = opts.OnProgress
	coord.onRefusal = report

	// Every connection ends once, with the reason it ended.
	type end struct {
		name string
		err  error
	}
	ends := make(chan end, links)
	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < local; i++ {
		name := fmt.Sprintf("local%d", i)
		conn, peer := net.Pipe()
		conns = append(conns, conn)
		worked := make(chan error, 1)
		go func() { worked <- Work(peer, []*Worker{{Name: name}}) }()
		go func() {
			err := coord.serve(conn, handshakeTimeout)
			if werr := <-worked; werr != nil {
				err = werr // the worker knows best why it stopped
			}
			ends <- end{name, err}
		}()
	}
	for _, addr := range opts.Daemons {
		conn, err := net.DialTimeout("tcp", addr, handshakeTimeout)
		if err != nil {
			ends <- end{addr, err}
			continue
		}
		conns = append(conns, conn)
		go func() { ends <- end{addr, coord.serve(conn, handshakeTimeout)} }()
	}

	open := links
	var first error
	for open > 0 && !completed(coord) {
		select {
		case <-coord.Done():
		case e := <-ends:
			open--
			if completed(coord) {
				break // a worker hanging up after the last completion
			}
			if !errors.Is(e.err, errRefused) {
				report(e.name, e.err) // refusals are reported as they happen
			}
			if first == nil {
				first = fmt.Errorf("%s: %w", e.name, e.err)
			}
		}
	}
	if !completed(coord) {
		return nil, coord.Stats(), fmt.Errorf("farm: every worker connection closed before the farm completed; the first, %w", first)
	}
	// Let connected workers see the completion (their next Lease returns
	// Done) and hang up, so a clean farm leaves no worker with a reset
	// connection; the deferred close takes whatever is left.
	grace := time.After(hangupGrace)
	for ; open > 0; open-- {
		select {
		case <-ends:
		case <-grace:
			return coord.Results(), coord.Stats(), nil
		}
	}
	return coord.Results(), coord.Stats(), nil
}

// completed reports whether every job of c has an accepted result.
func completed(c *Coordinator) bool {
	select {
	case <-c.Done():
		return true
	default:
		return false
	}
}

// Daemon is the worker service behind `sweepd -listen`: it accepts
// coordinators' connections and runs a batch of worker loops on each, as
// RPC clients of the coordinator that dialed.
type Daemon struct {
	// Name prefixes the worker loops' names.
	Name string
	// Workers is how many concurrent worker loops to run per connection.
	Workers int
	// Logf, if non-nil, receives connection lifecycle messages.
	Logf func(format string, args ...any)
}

// Serve accepts coordinators' connections on ln until it fails (close ln
// to stop) and works each farm on its own connection.
func (d *Daemon) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		loops := make([]*Worker, max(d.Workers, 1))
		for i := range loops {
			loops[i] = &Worker{Name: fmt.Sprintf("%s%d", d.Name, i)}
		}
		go func() {
			from := conn.RemoteAddr()
			d.logf("coordinator %s: %d worker loops", from, len(loops))
			if err := Work(conn, loops); err != nil {
				d.logf("coordinator %s: %v", from, err)
				return
			}
			d.logf("coordinator %s: farm drained", from)
		}()
	}
}

func (d *Daemon) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}
