package farm

import (
	"fmt"
	"net"
	"net/rpc"
	"sync"
)

// session is one worker connection's view of the coordinator, registered
// as the "Farm" RPC service on a per-connection rpc.Server. Tying the
// service object to the connection is what makes failure detection cheap:
// when ServeConn returns (hangup, reset, shutdown), close releases every
// lease the connection held, immediately — the lease TTL only covers
// workers that stall while keeping their socket open.
type session struct {
	coord *Coordinator
	name  string

	mu      sync.Mutex
	held    map[int]bool // job indices this connection is leasing
	greeted bool
}

func (s *session) hold(i int) {
	s.mu.Lock()
	s.held[i] = true
	s.mu.Unlock()
}

func (s *session) drop(i int) {
	s.mu.Lock()
	delete(s.held, i)
	s.mu.Unlock()
}

// close releases the session's leases back to the queue.
func (s *session) close() {
	s.mu.Lock()
	held := make([]int, 0, len(s.held))
	for i := range s.held {
		held = append(held, i)
	}
	s.held = map[int]bool{}
	s.mu.Unlock()

	c := s.coord
	c.mu.Lock()
	for _, i := range held {
		if c.state[i].owner == s && c.state[i].status == jobLeased {
			c.releaseLocked(i)
		}
	}
	c.mu.Unlock()
}

// Hello validates the worker's build and returns the spec. Every other
// method refuses to serve a connection that has not completed it.
func (s *session) Hello(h Hello, reply *Welcome) error {
	if err := compatible(h.Protocol, h.Snapshot, h.Build, s.coord.build); err != nil {
		return fmt.Errorf("farm: worker %q rejected: %w", h.Worker, err)
	}
	s.mu.Lock()
	s.greeted = true
	s.name = h.Worker
	s.mu.Unlock()
	s.coord.mu.Lock()
	s.coord.stats.Workers++
	s.coord.mu.Unlock()
	*reply = s.coord.welcome()
	return nil
}

func (s *session) ready() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.greeted {
		return fmt.Errorf("farm: handshake required before any other call")
	}
	return nil
}

// Lease grants one job (or Wait/Done).
func (s *session) Lease(a LeaseArgs, reply *LeaseReply) error {
	if err := s.ready(); err != nil {
		return err
	}
	r, err := s.coord.lease(s, a.Fingerprint)
	if err != nil {
		return err
	}
	*reply = r
	return nil
}

// Renew extends a lease's deadline.
func (s *session) Renew(a RenewArgs, reply *RenewReply) error {
	if err := s.ready(); err != nil {
		return err
	}
	reply.Held = s.coord.renew(s, a.Job, a.Seq)
	return nil
}

// Checkpoint uploads a mid-flight snapshot of a leased job.
func (s *session) Checkpoint(a CheckpointArgs, reply *CheckpointReply) error {
	if err := s.ready(); err != nil {
		return err
	}
	reply.Held = s.coord.checkpoint(s, a)
	return nil
}

// Complete delivers a finished job's result.
func (s *session) Complete(a CompleteArgs, reply *CompleteReply) error {
	if err := s.ready(); err != nil {
		return err
	}
	reply.Accepted = s.coord.complete(s, a)
	return nil
}

// Stats reports the coordinator's counters.
func (s *session) Stats(a struct{}, reply *StatsReply) error {
	reply.Stats = s.coord.Stats()
	return nil
}

// Serve accepts worker connections on ln until the listener closes. Each
// connection gets its own session and rpc.Server; the call blocks, so run
// it in a goroutine and close ln to stop accepting.
func (c *Coordinator) Serve(ln net.Listener) {
	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			break // listener closed
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.mu.Lock()
			c.sessions++
			c.mu.Unlock()
			sess := &session{coord: c, held: map[int]bool{}}
			srv := rpc.NewServer()
			// The method set is exactly the wire protocol; no error to check.
			_ = srv.RegisterName("Farm", sess)
			srv.ServeConn(conn)
			sess.close()
			c.mu.Lock()
			c.sessions--
			c.mu.Unlock()
		}()
	}
	wg.Wait()
}

// Listen starts serving on addr (":0" for an ephemeral test port) and
// returns the listener; close it to stop accepting.
func (c *Coordinator) Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go c.Serve(ln)
	return ln, nil
}
