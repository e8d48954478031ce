package farm

import (
	"fmt"
	"sync"
	"time"

	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
)

// Stats are the coordinator's counters. They describe scheduling, never
// results: two runs of the same spec may lease, reassign and resume
// differently while producing byte-identical reports.
type Stats struct {
	Jobs      int // jobs in the enumeration
	Completed int // accepted results
	Workers   int // handshakes accepted

	Leases         int // grants, initial and reassigned
	Reassigned     int // leases released by expiry or worker hangup
	Resumed        int // reassigned leases granted with a checkpoint
	StaleCompletes int // results refused because the lease had been reassigned

	Checkpoints         int // checkpoint uploads accepted
	CheckpointsRejected int // refused: corrupt snapshot or stale lease

	// WarmFetches is always 0: each worker session builds its warmups in
	// its own runner.WarmupCache, so the coordinator serves none. It stays
	// only because perfbench reports it as farm.warm_fetches.
	WarmFetches int
}

// job lease states.
const (
	jobPending = iota
	jobLeased
	jobDone
)

type jobState struct {
	status   int
	seq      uint64 // current lease's sequence number
	deadline time.Time
	owner    *session

	checkpoint []byte // latest validated mid-flight snapshot, nil if none
	ckCycle    uint64
}

// Coordinator owns one spec's execution across a worker fleet: the lease
// table, the checkpoint store, and the result slots. Safe for concurrent
// use by the per-connection RPC sessions.
type Coordinator struct {
	spec        JobSpec
	jobs        []runner.Job
	fingerprint string
	build       string

	ttl   time.Duration
	every uint64

	// OnProgress, if set before Serve, observes accepted completions in
	// completion order (like runner.Options.OnProgress, and with the same
	// caveat: completion order is not deterministic).
	OnProgress func(runner.Progress)

	mu        sync.Mutex
	state     []jobState
	results   []runner.Result
	completed int
	seq       uint64
	stats     Stats
	sessions  int // currently connected workers
	done      chan struct{}

	janitorStop chan struct{}
}

// DefaultLeaseTTL is generous: expiry exists for workers that vanish
// without closing their connection (a hangup releases leases immediately).
const DefaultLeaseTTL = time.Minute

// NewCoordinator enumerates the spec locally and prepares to serve it.
// leaseTTL <= 0 selects DefaultLeaseTTL; checkpointEvery is the interval
// (in simulated cycles) workers snapshot Measure jobs at, 0 to disable.
func NewCoordinator(spec JobSpec, leaseTTL time.Duration, checkpointEvery uint64) (*Coordinator, error) {
	jobs, err := Enumerate(spec)
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("farm: spec enumerates no jobs")
	}
	if leaseTTL <= 0 {
		leaseTTL = DefaultLeaseTTL
	}
	c := &Coordinator{
		spec:        spec,
		jobs:        jobs,
		fingerprint: Fingerprint(spec, jobs),
		build:       BuildHash(),
		ttl:         leaseTTL,
		every:       checkpointEvery,
		state:       make([]jobState, len(jobs)),
		results:     make([]runner.Result, len(jobs)),
		done:        make(chan struct{}),
		janitorStop: make(chan struct{}),
	}
	c.stats.Jobs = len(jobs)
	go c.janitor()
	return c, nil
}

// janitor expires overdue leases. Connection hangups release leases
// immediately (see session.close); the janitor covers workers that stall
// while keeping their TCP connection alive.
func (c *Coordinator) janitor() {
	tick := time.NewTicker(c.ttl / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.janitorStop:
			return
		case now := <-tick.C:
			c.mu.Lock()
			for i := range c.state {
				st := &c.state[i]
				if st.status == jobLeased && now.After(st.deadline) {
					c.releaseLocked(i)
				}
			}
			c.mu.Unlock()
		}
	}
}

// releaseLocked returns a leased job to the queue (lease expiry or owner
// hangup). Caller holds mu.
func (c *Coordinator) releaseLocked(i int) {
	st := &c.state[i]
	if st.owner != nil {
		st.owner.drop(i)
	}
	st.status = jobPending
	st.owner = nil
	c.stats.Reassigned++
}

// Jobs returns the enumerated job count.
func (c *Coordinator) Jobs() int { return len(c.jobs) }

// Spec returns the coordinator's spec.
func (c *Coordinator) Spec() JobSpec { return c.spec }

// Done is closed once every job has an accepted result.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Results blocks until every job completed and returns the results in
// enumeration order — the exact contract of runner.Run, which is what
// makes farm output byte-identical to the in-process pool.
func (c *Coordinator) Results() []runner.Result {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.results
}

// Stats returns a snapshot of the counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Stop terminates the janitor. Serving sessions drain on their own when
// their connections close.
func (c *Coordinator) Stop() {
	close(c.janitorStop)
}

// WaitIdle waits (up to the timeout) for every worker connection to
// close. Called after Done so workers observe the farm's completion —
// their final Lease returns Done and they disconnect cleanly — before
// the coordinator process tears the sockets down under them.
func (c *Coordinator) WaitIdle(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		n := c.sessions
		c.mu.Unlock()
		if n == 0 || time.Now().After(deadline) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// welcome builds the handshake reply (after compat validation).
func (c *Coordinator) welcome() Welcome {
	return Welcome{
		Protocol:        ProtocolVersion,
		Snapshot:        sim.SnapshotVersion,
		Build:           c.build,
		Spec:            c.spec,
		Jobs:            len(c.jobs),
		Fingerprint:     c.fingerprint,
		LeaseTTL:        c.ttl,
		CheckpointEvery: c.every,
	}
}

// lease grants the lowest pending job to s, or reports Wait/Done.
func (c *Coordinator) lease(s *session, fingerprint string) (LeaseReply, error) {
	if fingerprint != c.fingerprint {
		return LeaseReply{}, fmt.Errorf("farm: enumeration fingerprint mismatch (worker %s vs coordinator %s); divergent job lists cannot share indices",
			short(fingerprint), short(c.fingerprint))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.completed == len(c.jobs) {
		return LeaseReply{Done: true}, nil
	}
	for i := range c.state {
		st := &c.state[i]
		if st.status != jobPending {
			continue
		}
		c.seq++
		st.status = jobLeased
		st.seq = c.seq
		st.deadline = time.Now().Add(c.ttl)
		st.owner = s
		s.hold(i)
		c.stats.Leases++
		reply := LeaseReply{Job: i, Seq: st.seq}
		if st.checkpoint != nil {
			reply.Checkpoint = st.checkpoint
			reply.CheckpointCycle = st.ckCycle
			c.stats.Resumed++
		}
		return reply, nil
	}
	return LeaseReply{Wait: true}, nil
}

// renew extends the lease if s still holds it.
func (c *Coordinator) renew(s *session, job int, seq uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.heldLocked(s, job, seq) {
		return false
	}
	c.state[job].deadline = time.Now().Add(c.ttl)
	return true
}

// heldLocked reports whether s currently holds the (job, seq) lease.
func (c *Coordinator) heldLocked(s *session, job int, seq uint64) bool {
	if job < 0 || job >= len(c.state) {
		return false
	}
	st := &c.state[job]
	return st.status == jobLeased && st.seq == seq && st.owner == s
}

// checkpoint stores a mid-flight snapshot for a leased job. The lease is
// checked first, so an upload under a stale or foreign lease is refused
// before anything decodes it. The snapshot is then validated (framing,
// format version) before it replaces the previous one: a worker dying
// mid-upload truncates the payload, and a truncated payload must lose
// progress, never poison the resume path. The decode runs outside the
// lock, so the lease is checked again after it.
func (c *Coordinator) checkpoint(s *session, a CheckpointArgs) bool {
	c.mu.Lock()
	held := c.heldLocked(s, a.Job, a.Seq)
	if !held {
		c.stats.CheckpointsRejected++
	}
	c.mu.Unlock()
	if !held {
		return false
	}
	_, err := decodeMachine(a.Snapshot)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.heldLocked(s, a.Job, a.Seq) {
		c.stats.CheckpointsRejected++
		return false
	}
	if err != nil {
		c.stats.CheckpointsRejected++
		return true // lease is fine; only this upload is refused
	}
	st := &c.state[a.Job]
	st.checkpoint = a.Snapshot
	st.ckCycle = a.Cycle
	st.deadline = time.Now().Add(c.ttl) // an upload is as good as a heartbeat
	c.stats.Checkpoints++
	return true
}

// complete records a finished job if the lease is still current.
func (c *Coordinator) complete(s *session, a CompleteArgs) bool {
	c.mu.Lock()
	if !c.heldLocked(s, a.Job, a.Seq) {
		c.stats.StaleCompletes++
		c.mu.Unlock()
		return false
	}
	st := &c.state[a.Job]
	st.status = jobDone
	st.owner = nil
	st.checkpoint = nil
	s.drop(a.Job)
	c.results[a.Job] = fromWire(a.Result)
	c.completed++
	c.stats.Completed++
	allDone := c.completed == len(c.jobs)
	if c.OnProgress != nil {
		// Called under the lock so calls are serialized, like the pool's
		// OnProgress contract. The callback must not call back into the
		// coordinator (it is a print hook).
		p := runner.Progress{
			Done:   c.completed,
			Total:  len(c.jobs),
			Name:   a.Result.Name,
			Cycles: a.Result.Cycle,
			Wall:   a.Result.Wall,
		}
		if a.Result.Err != "" {
			p.Err = fmt.Errorf("%s", a.Result.Err)
		}
		c.OnProgress(p)
	}
	c.mu.Unlock()
	if allDone {
		close(c.done)
	}
	return true
}

// short abbreviates a key or fingerprint for error messages.
func short(s string) string {
	if len(s) > 12 {
		return s[:12] + "…"
	}
	return s
}
