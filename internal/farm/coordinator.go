package farm

import (
	"fmt"
	"sync"
	"time"

	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
	"mcmsim/internal/snapshot"
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
	CheckpointsRejected int // refused: stale lease, or a snapshot.Verify failure

	// WarmFetches is always 0: each worker loop builds its warmups in
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

	checkpoint []byte // latest verified mid-flight snapshot, nil if none
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

	// OnProgress, if set before serving, observes accepted completions in
	// completion order (like runner.Options.OnProgress, and with the same
	// caveat: completion order is not deterministic).
	OnProgress func(runner.Progress)
	// onRefusal, if set before serving, reports each refused Hello.
	onRefusal func(worker string, err error)

	mu        sync.Mutex
	state     []jobState
	results   []runner.Result
	completed int
	seq       uint64
	stats     Stats
	done      chan struct{}

	janitorStop chan struct{}
}

// DefaultLeaseTTL is generous: expiry exists for workers that vanish
// without closing their connection (a hangup releases leases immediately).
const DefaultLeaseTTL = time.Minute

// minLeaseTTL is the shortest lease either side accepts: the janitor
// sweeps at a quarter of the TTL and a worker heartbeats at a third, and
// neither can tick at a zero interval.
const minLeaseTTL = time.Millisecond

// NewCoordinator enumerates the spec locally and prepares to serve it.
// leaseTTL <= 0 selects DefaultLeaseTTL, and a positive TTL below
// minLeaseTTL is an error; checkpointEvery is the interval (in simulated
// cycles) workers snapshot Measure jobs at, 0 to disable.
func NewCoordinator(spec JobSpec, leaseTTL time.Duration, checkpointEvery uint64) (*Coordinator, error) {
	if leaseTTL > 0 && leaseTTL < minLeaseTTL {
		return nil, fmt.Errorf("farm: lease TTL %v is below the minimum %v", leaseTTL, minLeaseTTL)
	}
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
// while keeping their connection open.
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

// checkpoint stores a mid-flight snapshot for a leased job, in one
// critical section. The lease is checked first, so an upload under a
// stale or foreign lease is refused before its bytes are looked at. The
// upload is then verified (snapshot.Verify: header, exact length,
// checksum) before it replaces the previous one: a worker dying
// mid-upload truncates the payload, and a truncated or damaged payload
// must lose progress, never poison the resume path. Nothing is decoded
// here; the worker that resumes from the checkpoint decodes it.
func (c *Coordinator) checkpoint(s *session, a CheckpointArgs) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.heldLocked(s, a.Job, a.Seq) {
		c.stats.CheckpointsRejected++
		return false
	}
	if snapshot.Verify(a.Snapshot) != nil {
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
