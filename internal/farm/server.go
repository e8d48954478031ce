package farm

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"
)

// session is one worker connection's view of the coordinator, registered
// as the "Farm" RPC service on a per-connection rpc.Server. The worker
// loops at the far end share the connection, and with it the session.
// Tying the service object to the connection is what makes failure
// detection cheap: when ServeConn returns (hangup, reset, shutdown),
// close releases every lease the connection held, immediately — the
// lease TTL only covers workers that stall while keeping their connection
// open.
type session struct {
	coord *Coordinator
	conn  net.Conn

	mu      sync.Mutex
	held    map[int]bool // job indices this connection is leasing
	greeted bool
	refusal error // the first refused Hello, naming its worker
}

// errRefused marks a Hello the coordinator refused as incompatible.
var errRefused = errors.New("handshake refused")

// serve runs one worker session on conn, which the coordinator opened:
// the Farm service, until the connection ends. The peer must complete a
// Hello within timeout, or the connection is closed. On return the
// session's leases are released and conn is closed; the error says why
// the session ended.
func (c *Coordinator) serve(conn net.Conn, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	// Setting a deadline fails only on a closed conn, which ServeConn
	// ends at once.
	_ = conn.SetReadDeadline(deadline)
	s := &session{coord: c, conn: conn, held: map[int]bool{}}
	srv := rpc.NewServer()
	// The method set is exactly the wire protocol; no error to check.
	_ = srv.RegisterName("Farm", s)
	srv.ServeConn(conn)
	s.close()

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.refusal != nil:
		return s.refusal
	case s.greeted:
		return errors.New("connection closed")
	case time.Now().After(deadline):
		return fmt.Errorf("no handshake within %v", timeout)
	}
	return errors.New("connection closed before the handshake")
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
// method refuses to serve a connection that has not completed it. The
// first accepted Hello lifts the connection's handshake deadline.
func (s *session) Hello(h Hello, reply *Welcome) error {
	if err := compatible(h.Protocol, h.Snapshot, h.Build, s.coord.build); err != nil {
		err = fmt.Errorf("%w: %w", errRefused, err)
		if s.coord.onRefusal != nil {
			s.coord.onRefusal(h.Worker, err)
		}
		s.mu.Lock()
		if s.refusal == nil {
			s.refusal = fmt.Errorf("worker %q %w", h.Worker, err)
		}
		s.mu.Unlock()
		return fmt.Errorf("farm: worker %q rejected: %w", h.Worker, err)
	}
	s.mu.Lock()
	if !s.greeted {
		_ = s.conn.SetReadDeadline(time.Time{}) // fails only once conn is closed
	}
	s.greeted = true
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
