package farm

import (
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"mcmsim/internal/runner"
)

// Options configures a one-call farm run.
type Options struct {
	// Listen is the coordinator's address; "" serves on an ephemeral
	// loopback port (pure-local farms, tests).
	Listen string
	// Advertise is the address invited daemons dial back; "" uses the
	// listener's own address (fine on one host; multi-host fleets must
	// set it to a reachable name).
	Advertise string
	// LocalWorkers is how many in-process workers to attach over loopback.
	LocalWorkers int
	// Invite lists sweepd worker daemons (host:port) to attach.
	Invite []string
	// LeaseTTL and CheckpointEvery parameterize NewCoordinator.
	LeaseTTL        time.Duration
	CheckpointEvery uint64
	// OnProgress observes accepted completions (completion order).
	OnProgress func(runner.Progress)
	// OnWorkerError observes local worker failures and every worker the
	// coordinator refuses at the handshake; nil logs nowhere.
	OnWorkerError func(name string, err error)
}

// Run executes the spec on a farm assembled from the options and returns
// the results in enumeration order plus the coordinator's final counters.
// With only local workers this is semantically `runner.Run` with extra
// steps — and byte-identical output, which `make differential` gates.
func Run(spec JobSpec, opts Options) ([]runner.Result, Stats, error) {
	coord, err := NewCoordinator(spec, opts.LeaseTTL, opts.CheckpointEvery)
	if err != nil {
		return nil, Stats{}, err
	}
	defer coord.Stop()
	coord.OnProgress = opts.OnProgress
	coord.onRefusal = opts.OnWorkerError

	addr := opts.Listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := coord.Listen(addr)
	if err != nil {
		return nil, Stats{}, err
	}
	defer ln.Close()

	advertise := opts.Advertise
	if advertise == "" {
		advertise = ln.Addr().String()
	}

	if opts.LocalWorkers <= 0 && len(opts.Invite) == 0 && opts.Listen == "" {
		// A loopback-only farm with no workers can never complete. An
		// explicit Listen address means external workers will attach.
		return nil, Stats{}, fmt.Errorf("farm: no workers: need LocalWorkers, Invite, or an explicit Listen address for external workers")
	}

	var wg sync.WaitGroup
	errCh := make(chan error, opts.LocalWorkers)
	for i := 0; i < opts.LocalWorkers; i++ {
		name := fmt.Sprintf("local%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := (&Worker{Name: name}).Run(advertise); err != nil {
				if opts.OnWorkerError != nil {
					opts.OnWorkerError(name, err)
				}
				errCh <- err
			}
		}()
	}
	invited := 0
	for _, daemon := range opts.Invite {
		n, err := Invite(daemon, advertise)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("farm: invite %s: %w", daemon, err)
		}
		invited += n
	}

	// With external workers possible (an invite, or an explicit listen
	// address), the farm waits for completion however long it takes, unless
	// the invited worker loops are all it has and the coordinator has
	// refused every one of them at the handshake. A pure-loopback farm
	// instead fails fast once its last worker exits with the farm
	// incomplete. Either way, nothing else could ever finish it.
	external := len(opts.Invite) > 0 || opts.Listen != ""
	switch {
	case opts.LocalWorkers <= 0 && opts.Listen == "":
		for waiting := true; waiting; {
			select {
			case <-coord.Done():
				waiting = false
			case <-coord.refusedC:
				if n, first := coord.refusals(); n >= invited {
					return nil, coord.Stats(), fmt.Errorf("farm: all %d invited workers were refused at the handshake, first %w", n, first)
				}
			}
		}
	case opts.LocalWorkers > 0 && !external:
		localsDone := make(chan struct{})
		go func() {
			wg.Wait()
			close(localsDone)
		}()
		select {
		case <-coord.Done():
		case <-localsDone:
			select {
			case <-coord.Done():
			default:
				select {
				case err := <-errCh:
					return nil, coord.Stats(), fmt.Errorf("farm: all workers exited before completion: %w", err)
				default:
					return nil, coord.Stats(), fmt.Errorf("farm: all workers exited before completion")
				}
			}
		}
	default:
		<-coord.Done()
	}
	results := coord.Results()
	// Let attached workers observe completion (their next Lease returns
	// Done) and hang up before the listener and process go away, so a
	// clean farm leaves no worker with a reset connection.
	coord.WaitIdle(2 * time.Second)
	return results, coord.Stats(), nil
}

// AttachArgs invites a worker daemon to a coordinator.
type AttachArgs struct {
	Coordinator string // address the daemon's workers should dial
}

// AttachReply reports how many worker loops the daemon started.
type AttachReply struct {
	Workers int
}

// Daemon is the invited-worker service behind `sweepd -listen`:
// it waits for Attach calls and runs a batch of worker loops against each
// coordinator that invites it.
type Daemon struct {
	// Name prefixes the spawned workers' names.
	Name string
	// Workers is how many concurrent worker loops to run per Attach.
	Workers int
	// Logf, if non-nil, receives worker lifecycle messages.
	Logf func(format string, args ...any)
}

func (d *Daemon) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

// Attach starts the daemon's workers against the given coordinator. It
// returns as soon as they are spawned; they drain the farm and exit on
// their own.
func (d *Daemon) Attach(a AttachArgs, reply *AttachReply) error {
	n := d.Workers
	if n <= 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s%d", d.Name, i)
		go func() {
			d.logf("worker %s: attaching to %s", name, a.Coordinator)
			if err := (&Worker{Name: name}).Run(a.Coordinator); err != nil {
				d.logf("worker %s: %v", name, err)
				return
			}
			d.logf("worker %s: farm drained", name)
		}()
	}
	reply.Workers = n
	return nil
}

// ListenAndServe serves the daemon's control service on addr until the
// listener fails (never, in practice — kill the process to stop it).
func (d *Daemon) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	d.logf("worker daemon listening on %s (%d workers per farm)", ln.Addr(), d.Workers)
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		srv := rpc.NewServer()
		_ = srv.RegisterName("Daemon", d)
		go srv.ServeConn(conn)
	}
}

// Invite asks the worker daemon at daemonAddr to attach its workers to
// the coordinator at coordAddr, returning how many it started.
func Invite(daemonAddr, coordAddr string) (int, error) {
	client, err := rpc.Dial("tcp", daemonAddr)
	if err != nil {
		return 0, err
	}
	defer client.Close()
	var reply AttachReply
	if err := client.Call("Daemon.Attach", AttachArgs{Coordinator: coordAddr}, &reply); err != nil {
		return 0, err
	}
	return reply.Workers, nil
}
