package farm

import (
	"errors"
	"fmt"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"

	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
	"mcmsim/internal/snapshot"
)

// leaseWaitBackoff is how long a worker sleeps when the coordinator has
// every remaining job leased out (or a warmup is being built elsewhere).
const leaseWaitBackoff = 10 * time.Millisecond

// Worker executes leased jobs against one coordinator. The zero value
// plus a name is ready; Run does the rest.
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

// Run connects to the coordinator at addr, performs the handshake, and
// pulls jobs until the farm reports Done. It returns nil on a drained
// farm and an error on incompatibility, a divergent enumeration, or a
// connection failure.
func (w *Worker) Run(addr string) error {
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("farm: worker %s: dial %s: %w", w.Name, addr, err)
	}
	defer client.Close()
	return w.run(client)
}

// run is Run minus the dialing, for tests that inject a connection.
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
	jobs, err := Enumerate(welcome.Spec)
	if err != nil {
		return err
	}
	fp := Fingerprint(welcome.Spec, jobs)
	if len(jobs) != welcome.Jobs || fp != welcome.Fingerprint {
		return fmt.Errorf("farm: worker %s: enumerated %d jobs with fingerprint %s, coordinator has %d with %s — divergent builds or spec drift",
			w.Name, len(jobs), short(fp), welcome.Jobs, short(welcome.Fingerprint))
	}

	warm := &wireWarmups{client: client, local: map[string]*localWarm{}}
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
func (w *Worker) execute(client *rpc.Client, welcome Welcome, jobs []runner.Job, warm *wireWarmups, lease LeaseReply) error {
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

	spec := welcome.Spec
	opts := runner.JobOptions{Warmups: warm, Drive: spec.drive()}
	var hookErr error
	if welcome.CheckpointEvery > 0 && job.Measure != nil {
		// Checkpointed drives slice the sequential loop: they trade the
		// shard engine for an interruptible clock.
		opts.Drive = func(s *sim.System) (uint64, error) {
			s.Cfg.DenseLoop = s.Cfg.DenseLoop || spec.Dense
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
		m, err := decodeMachine(lease.Checkpoint)
		if err != nil {
			// A checkpoint the coordinator validated should decode; if it
			// does not, the builds diverge — fatal, not per-job.
			return fmt.Errorf("farm: worker %s: resume checkpoint for job %d: %w", w.Name, lease.Job, err)
		}
		s, err := sim.Restore(m)
		if err != nil {
			return fmt.Errorf("farm: worker %s: resume checkpoint for job %d: %w", w.Name, lease.Job, err)
		}
		opts.Start = s
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

// localWarm memoizes one warmup key within a worker process, so the N
// jobs of one worker sharing a key cost one RPC fetch, not N.
type localWarm struct {
	once sync.Once
	snap *snapshot.Machine
	err  error
}

// wireWarmups is the worker's runner.WarmupSource: content-addressed
// fetch from the coordinator, with fleet-wide build deduplication (the
// first asker per key simulates the warmup once and uploads it) and a
// process-local memo in front.
type wireWarmups struct {
	client *rpc.Client

	mu    sync.Mutex
	local map[string]*localWarm
}

// Machine implements runner.WarmupSource over the wire.
func (ww *wireWarmups) Machine(key string, build func() (*sim.System, error)) (*snapshot.Machine, error) {
	ww.mu.Lock()
	lw, ok := ww.local[key]
	if !ok {
		lw = &localWarm{}
		ww.local[key] = lw
	}
	ww.mu.Unlock()
	lw.once.Do(func() {
		lw.snap, lw.err = ww.fetch(key, build)
	})
	return lw.snap, lw.err
}

// fetch polls the coordinator until the key resolves: download the
// snapshot, build it under a fleet-wide grant, or inherit the builder's
// error.
func (ww *wireWarmups) fetch(key string, build func() (*sim.System, error)) (*snapshot.Machine, error) {
	for {
		var r WarmupReply
		if err := ww.client.Call("Farm.Warmup", WarmupArgs{Key: key}, &r); err != nil {
			return nil, err
		}
		switch {
		case r.Error != "":
			return nil, fmt.Errorf("%s", r.Error)
		case r.Snapshot != nil:
			return decodeMachine(r.Snapshot)
		case r.Build:
			m, err := ww.build(key, build)
			if err != nil {
				return nil, err
			}
			return m, nil
		}
		time.Sleep(leaseWaitBackoff)
	}
}

// build simulates the warmup under this worker's grant and uploads it.
// The builder restores from its own uploaded snapshot like every other
// consumer (the in-process cache has the same property), so builder and
// fetcher jobs run their measured phases on byte-identical machines.
func (ww *wireWarmups) build(key string, build func() (*sim.System, error)) (*snapshot.Machine, error) {
	s, err := build()
	if err != nil {
		putErr := ww.client.Call("Farm.PutWarmup", PutWarmupArgs{Key: key, Error: err.Error()}, &struct{}{})
		if putErr != nil {
			return nil, putErr
		}
		return nil, err
	}
	m, err := s.Snapshot()
	if err != nil {
		return nil, err
	}
	b, err := encodeMachine(m)
	if err != nil {
		return nil, err
	}
	if err := ww.client.Call("Farm.PutWarmup", PutWarmupArgs{Key: key, Snapshot: b}, &struct{}{}); err != nil {
		return nil, err
	}
	return m, nil
}
