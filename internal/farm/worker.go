package farm

import (
	"errors"
	"fmt"
	"io"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"

	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
)

// leaseWaitBackoff is how long a worker sleeps when the coordinator has
// every remaining job leased out.
const leaseWaitBackoff = 10 * time.Millisecond

// Worker executes leased jobs against one coordinator. The zero value
// plus a name is ready; Work does the rest.
type Worker struct {
	// Name labels the worker in coordinator stats and error messages.
	Name string

	// CheckpointHook, if non-nil, runs after every accepted checkpoint
	// upload with the job index and the snapshot's absolute cycle. A
	// non-nil error abandons the job and terminates the worker with that
	// error — the fault-injection tests use it to simulate a worker dying
	// right after (or instead of) a checkpoint.
	CheckpointHook func(job int, cycle uint64) error
}

// Work runs the worker loops against the coordinator at the far end of
// conn, the connection the coordinator opened. The loops are concurrent
// RPC clients sharing one rpc.Client, which multiplexes their calls; each
// performs its own handshake and pulls jobs until the farm reports Done.
// The first loop to fail closes conn, which ends the session and releases
// every lease it holds. Work returns that failure — incompatibility, a
// divergent enumeration, a hostile reply, a connection failure — or nil
// once every loop saw the farm drain.
func Work(conn io.ReadWriteCloser, loops []*Worker) error {
	client := rpc.NewClient(conn)
	defer client.Close()
	errs := make(chan error, len(loops))
	for _, w := range loops {
		go func() { errs <- w.run(client) }()
	}
	var first error
	for range loops {
		if err := <-errs; err != nil && first == nil {
			first = err
			client.Close()
		}
	}
	return first
}

// run performs the handshake and pulls jobs until the farm reports Done.
func (w *Worker) run(client *rpc.Client) error {
	var welcome Welcome
	hello := Hello{
		Protocol: ProtocolVersion,
		Snapshot: sim.SnapshotVersion,
		Build:    BuildHash(),
		Worker:   w.Name,
	}
	if err := client.Call("Farm.Hello", hello, &welcome); err != nil {
		return err
	}
	// Symmetric check: an old coordinator must be rejected by a new worker
	// just as firmly as the reverse.
	if err := compatible(welcome.Protocol, welcome.Snapshot, welcome.Build, hello.Build); err != nil {
		return fmt.Errorf("farm: worker %s: coordinator rejected: %w", w.Name, err)
	}
	if welcome.LeaseTTL < minLeaseTTL {
		return fmt.Errorf("farm: worker %s: coordinator rejected: lease TTL %v is below the minimum %v", w.Name, welcome.LeaseTTL, minLeaseTTL)
	}
	jobs, err := Enumerate(welcome.Spec)
	if err != nil {
		return err
	}
	fp := Fingerprint(welcome.Spec, jobs)
	if len(jobs) != welcome.Jobs || fp != welcome.Fingerprint {
		return fmt.Errorf("farm: worker %s: enumerated %d jobs with fingerprint %s, coordinator has %d with %s — divergent builds or spec drift",
			w.Name, len(jobs), short(fp), welcome.Jobs, short(welcome.Fingerprint))
	}

	// One warmup cache per loop: the loop builds each declared
	// warmup at most once, and every job restores from the snapshot.
	warm := runner.NewWarmupCache()
	for {
		var lease LeaseReply
		if err := client.Call("Farm.Lease", LeaseArgs{Fingerprint: fp}, &lease); err != nil {
			return err
		}
		switch {
		case lease.Done:
			return nil
		case lease.Wait:
			time.Sleep(leaseWaitBackoff)
			continue
		}
		if err := w.execute(client, welcome, jobs, warm, lease); err != nil {
			return err
		}
	}
}

// execute runs one leased job to completion (or abandonment) and reports
// the result. Only infrastructure failures return an error — a job whose
// simulation fails completes with that error in its result, exactly like
// the in-process pool.
func (w *Worker) execute(client *rpc.Client, welcome Welcome, jobs []runner.Job, warm *runner.WarmupCache, lease LeaseReply) error {
	if lease.Job < 0 || lease.Job >= len(jobs) {
		return fmt.Errorf("farm: worker %s: leased job %d of a %d-job enumeration", w.Name, lease.Job, len(jobs))
	}
	job := jobs[lease.Job]

	// Heartbeat for the lease while the job runs. lost flips when the
	// coordinator no longer recognizes the lease; the checkpoint drive
	// notices at its next slice boundary and abandons the job.
	var lost atomic.Bool
	stop := make(chan struct{})
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		tick := time.NewTicker(welcome.LeaseTTL / 3)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				var r RenewReply
				if err := client.Call("Farm.Renew", RenewArgs{Job: lease.Job, Seq: lease.Seq}, &r); err != nil || !r.Held {
					lost.Store(true)
					return
				}
			}
		}
	}()
	defer func() {
		close(stop)
		hb.Wait()
	}()

	opts := runner.JobOptions{Warmups: warm}
	var hookErr error
	if welcome.CheckpointEvery > 0 && job.Measure != nil {
		// Checkpointed drives slice the sequential loop into an
		// interruptible clock.
		opts.Drive = func(s *sim.System) (uint64, error) {
			return s.RunCheckpointed(welcome.CheckpointEvery, func(s *sim.System) error {
				if lost.Load() {
					return errAbandoned
				}
				m, err := s.Snapshot()
				if err != nil {
					return err
				}
				b, err := encodeMachine(m)
				if err != nil {
					return err
				}
				var r CheckpointReply
				if err := client.Call("Farm.Checkpoint", CheckpointArgs{
					Job: lease.Job, Seq: lease.Seq, Cycle: s.Cycle, Snapshot: b,
				}, &r); err != nil {
					return err
				}
				if !r.Held {
					return errAbandoned
				}
				if w.CheckpointHook != nil {
					if err := w.CheckpointHook(lease.Job, s.Cycle); err != nil {
						hookErr = err
						return errAbandoned
					}
				}
				return nil
			})
		}
	}
	if lease.Checkpoint != nil && job.Measure != nil {
		// The coordinator verified the checkpoint's framing and checksum,
		// and the handshake refused mixed builds and snapshot versions, so
		// a checkpoint that does not decode or restore was uploaded bad,
		// not damaged on the way or misread. It costs only its progress:
		// the job runs from cycle zero, as under a lease without one.
		if m, err := decodeMachine(lease.Checkpoint); err == nil {
			if s, err := sim.Restore(m); err == nil {
				opts.Start = s
			}
		}
	}

	res := runner.RunJob(job, opts)
	if errors.Is(res.Err, errAbandoned) {
		if hookErr != nil {
			return hookErr // the injected fault: die, do not complete
		}
		return nil // lease lost; someone else owns the job now
	}
	var cr CompleteReply
	if err := client.Call("Farm.Complete", CompleteArgs{
		Job: lease.Job, Seq: lease.Seq, Result: toWire(res),
	}, &cr); err != nil {
		return err
	}
	// cr.Accepted false means the result was stale — already reassigned.
	// Nothing to do either way; the coordinator's copy is authoritative.
	return nil
}

// errAbandoned marks a job given up mid-drive because its lease was lost
// (or a fault hook fired). It surfaces as the RunJob error and is eaten
// by execute — never completed, never fatal by itself.
var errAbandoned = fmt.Errorf("farm: lease lost; job abandoned")
