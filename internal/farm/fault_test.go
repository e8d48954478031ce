package farm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"net/rpc"
	"strings"
	"testing"
	"time"

	"mcmsim/internal/isa"
	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
	"mcmsim/internal/snapshot"
)

// TestFarmWorkerDeathResumesFromCheckpoint kills a worker right after its
// first checkpoint upload and asserts the full fault path: the hangup
// releases the lease immediately, a healthy worker is reassigned the job,
// resumes from the dead worker's checkpoint rather than cycle zero, and
// the final report is byte-identical to an undisturbed local run. The
// warmequal input resumes a warmed job: the victim builds the shared
// warmup in its own session cache, completes the jobs before the one it
// dies in, and dies inside that job's measured kernel, whose model and
// technique differ from the warmup's. The healthy worker resumes that job
// from the checkpoint and builds the warmup in its own cache for the jobs
// it starts from scratch.
func TestFarmWorkerDeathResumesFromCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		exp   string
		every uint64
		die   string // the job the victim dies in; the jobs before it complete
	}{
		{"equalization", 1000, "equalization/SC/conv"},
		{"warmequal", 100, "warmequal/PC/pf+spec"}, // a 206-cycle kernel
	} {
		t.Run(tc.exp, func(t *testing.T) {
			spec := JobSpec{Kind: "sweep", Exps: []string{tc.exp}, Procs: 3, Seed: 7}
			coord, err := NewCoordinator(spec, 0, tc.every)
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Stop()
			die := -1
			for i, j := range coord.jobs {
				if j.Name == tc.die {
					die = i
				}
			}
			if die < 0 {
				t.Fatalf("%s enumerates no job %s", tc.exp, tc.die)
			}
			// Worker A dies at its first checkpoint of the chosen job: the
			// hook error abandons the job and terminates the worker, whose
			// closing connection releases the lease (no TTL wait —
			// equivalent to the process being killed).
			injected := errors.New("injected worker death")
			victim := &Worker{Name: "victim", CheckpointHook: func(job int, cycle uint64) error {
				if cycle == 0 {
					t.Errorf("checkpoint at cycle 0")
				}
				if job != die {
					return nil
				}
				return injected
			}}
			if err := Work(pipe(t, coord), []*Worker{victim}); !errors.Is(err, injected) {
				t.Fatalf("victim exited with %v, want the injected death", err)
			}

			st := coord.Stats()
			if st.Checkpoints < 1 {
				t.Fatalf("victim died without an accepted checkpoint (stats %+v)", st)
			}
			if st.Completed != die {
				t.Fatalf("victim completed %d jobs before dying in job %d", st.Completed, die)
			}

			// A healthy worker drains the farm, the victim's job included.
			if err := Work(pipe(t, coord), []*Worker{{Name: "healthy"}}); err != nil {
				t.Fatal(err)
			}
			st = coord.Stats()
			if st.Completed != st.Jobs {
				t.Fatalf("farm incomplete after recovery: %d of %d (stats %+v)", st.Completed, st.Jobs, st)
			}
			if st.Reassigned < 1 {
				t.Errorf("victim's hangup released no lease (stats %+v)", st)
			}
			if st.Resumed < 1 {
				t.Errorf("reassigned job restarted from cycle zero instead of the checkpoint (stats %+v)", st)
			}

			results := coord.Results()
			for _, format := range []string{runner.FormatTable, runner.FormatJSON, runner.FormatCSV} {
				farm := render(t, results, format)
				local := renderLocal(t, spec, 2, format)
				if !bytes.Equal(farm, local) {
					t.Errorf("%s output differs after worker death:\n--- farm ---\n%s--- local ---\n%s", format, farm, local)
				}
			}
		})
	}
}

// TestFarmLeaseExpiryReassigns covers the worker that stalls while keeping
// its connection open: no hangup fires, so the TTL janitor must reassign
// its job, a stale completion must be refused, and the report must still
// be byte-identical to a local run.
func TestFarmLeaseExpiryReassigns(t *testing.T) {
	spec := JobSpec{Kind: "sweep", Exps: []string{"equalization"}, Procs: 3, Seed: 7}
	coord := newCoord(t, spec, 100*time.Millisecond, 0)

	// The staller leases a job over a raw connection and never heartbeats.
	client := rpc.NewClient(pipe(t, coord))
	var w Welcome
	hello := Hello{Protocol: ProtocolVersion, Snapshot: sim.SnapshotVersion, Worker: "staller"}
	if err := client.Call("Farm.Hello", hello, &w); err != nil {
		t.Fatal(err)
	}
	var lease LeaseReply
	if err := client.Call("Farm.Lease", LeaseArgs{Fingerprint: w.Fingerprint}, &lease); err != nil {
		t.Fatal(err)
	}
	if lease.Done || lease.Wait {
		t.Fatalf("staller got no job: %+v", lease)
	}

	// A healthy worker drains the farm; it has to Wait out the staller's
	// TTL before the janitor hands it the stalled job.
	if err := Work(pipe(t, coord), []*Worker{{Name: "healthy"}}); err != nil {
		t.Fatal(err)
	}
	st := coord.Stats()
	if st.Completed != st.Jobs {
		t.Fatalf("farm incomplete: %d of %d", st.Completed, st.Jobs)
	}
	if st.Reassigned < 1 {
		t.Errorf("stalled lease never expired (stats %+v)", st)
	}

	// The staller finally answers — with a wrong row. The lease is stale,
	// so the result must be refused and the report unaffected.
	var cr CompleteReply
	if err := client.Call("Farm.Complete", CompleteArgs{
		Job: lease.Job, Seq: lease.Seq,
		Result: WireResult{Name: "bogus", Row: runner.Row{Cycles: 1}},
	}, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Accepted {
		t.Error("stale completion accepted")
	}
	if st := coord.Stats(); st.StaleCompletes != 1 {
		t.Errorf("StaleCompletes = %d, want 1", st.StaleCompletes)
	}

	farm := render(t, coord.Results(), runner.FormatTable)
	local := renderLocal(t, spec, 2, runner.FormatTable)
	if !bytes.Equal(farm, local) {
		t.Errorf("table output differs after lease expiry:\n--- farm ---\n%s--- local ---\n%s", farm, local)
	}
}

// tinyMachine is a small valid machine (any machine: the coordinator
// checks a checkpoint's framing, not which job it belongs to).
func tinyMachine(t *testing.T) *sim.Machine {
	t.Helper()
	cfg := sim.PaperConfig()
	cfg.Procs = 2
	halt := isa.NewBuilder().Halt().Build()
	m, err := sim.New(cfg, []*isa.Program{halt, halt}).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// tinySnapshot is tinyMachine serialized as a checkpoint upload.
func tinySnapshot(t *testing.T) []byte {
	t.Helper()
	b, err := snapshot.Append(nil, tinyMachine(t))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// withPayload puts another payload behind snap's magic and version,
// with the length and CRC-32C of the new payload in the big-endian
// layout internal/snapshot documents, so the upload passes
// snapshot.Verify whatever the payload holds.
func withPayload(snap, payload []byte) []byte {
	b := bytes.Clone(snap[:20])
	b = binary.BigEndian.AppendUint64(b, uint64(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(b, payload...)
}

// TestFarmCorruptCheckpointRejected covers the worker killed mid-upload:
// a corrupt or truncated checkpoint payload must be refused without
// disturbing the previously stored one, and the eventual reassignment
// must resume from that intact previous checkpoint.
func TestFarmCorruptCheckpointRejected(t *testing.T) {
	spec := JobSpec{Kind: "sweep", Exps: []string{"equalization"}, Procs: 3, Seed: 7}
	coord, err := NewCoordinator(spec, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()

	sess := &session{coord: coord, held: map[int]bool{}}
	lease, err := coord.lease(sess, coord.fingerprint)
	if err != nil {
		t.Fatal(err)
	}

	good := tinySnapshot(t)
	valid := CheckpointArgs{Job: lease.Job, Seq: lease.Seq, Cycle: 1000, Snapshot: good}
	if held := coord.checkpoint(sess, valid); !held {
		t.Fatal("valid checkpoint refused")
	}
	if st := coord.Stats(); st.Checkpoints != 1 {
		t.Fatalf("Checkpoints = %d, want 1", st.Checkpoints)
	}
	// Accepting an upload verifies it and decodes nothing, so it
	// allocates nothing.
	if allocs := testing.AllocsPerRun(5, func() { coord.checkpoint(sess, valid) }); allocs > 0 {
		t.Errorf("an accepted upload allocates %.0f objects, want 0", allocs)
	}

	// Garbage, truncated (a worker dying mid-upload) and bit-flipped
	// payloads: all refused, lease intact, stored checkpoint untouched.
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x10
	for _, bad := range [][]byte{[]byte("not a snapshot"), good[:len(good)/2], flipped} {
		if held := coord.checkpoint(sess, CheckpointArgs{Job: lease.Job, Seq: lease.Seq, Cycle: 2000, Snapshot: bad}); !held {
			t.Error("corrupt upload revoked the lease; it should only refuse the payload")
		}
	}
	// Stale lease: refused outright, before its bytes are verified, and
	// refusing it allocates nothing.
	stale := CheckpointArgs{Job: lease.Job, Seq: lease.Seq + 99, Cycle: 2000, Snapshot: good}
	if held := coord.checkpoint(sess, stale); held {
		t.Error("checkpoint accepted under a stale lease")
	}
	if allocs := testing.AllocsPerRun(5, func() { coord.checkpoint(sess, stale) }); allocs > 0 {
		t.Errorf("a stale-lease upload allocates %.0f objects, want 0", allocs)
	}
	st := coord.Stats()
	if st.CheckpointsRejected != 4+6 {
		t.Errorf("CheckpointsRejected = %d, want 10", st.CheckpointsRejected)
	}
	if st.Checkpoints != 1+6 {
		t.Errorf("Checkpoints = %d, want 7 (corrupt uploads must not count)", st.Checkpoints)
	}

	// The owner dies; the reassigned lease must carry the intact snapshot.
	sess.close()
	sess2 := &session{coord: coord, held: map[int]bool{}}
	lease2, err := coord.lease(sess2, coord.fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if lease2.Job != lease.Job {
		t.Fatalf("reassignment leased job %d, want the released job %d", lease2.Job, lease.Job)
	}
	if !bytes.Equal(lease2.Checkpoint, good) {
		t.Error("reassigned lease does not carry the last valid checkpoint")
	}
	if lease2.CheckpointCycle != 1000 {
		t.Errorf("CheckpointCycle = %d, want 1000", lease2.CheckpointCycle)
	}
	if st := coord.Stats(); st.Resumed != 1 || st.Reassigned != 1 {
		t.Errorf("Resumed/Reassigned = %d/%d, want 1/1", st.Resumed, st.Reassigned)
	}
}

// TestFarmBadCheckpointRestartsJob covers a checkpoint that passes the
// coordinator's check but cannot resume its job: a session leases a job,
// uploads such a checkpoint and hangs up. The healthy worker handed the
// job with that checkpoint must run it from cycle zero instead of dying,
// drain the farm, and render the local pool's bytes. The checkpoints are
// a machine that decodes but that Restore refuses (a processor state
// short), and a payload with a valid checksum whose body is garbage.
func TestFarmBadCheckpointRestartsJob(t *testing.T) {
	for _, tc := range []struct {
		name     string
		snapshot func(t *testing.T) []byte
	}{
		{"restore refuses", func(t *testing.T) []byte {
			m := tinyMachine(t)
			m.Procs = m.Procs[:1]
			b, err := snapshot.Append(nil, m)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"garbage payload", func(t *testing.T) []byte {
			return withPayload(tinySnapshot(t), []byte("not a machine payload"))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := JobSpec{Kind: "sweep", Exps: []string{"equalization"}, Procs: 3, Seed: 7}
			coord := newCoord(t, spec, 0, 1000)
			client := rpc.NewClient(pipe(t, coord))
			var w Welcome
			hello := Hello{Protocol: ProtocolVersion, Snapshot: sim.SnapshotVersion, Worker: "uploader"}
			if err := client.Call("Farm.Hello", hello, &w); err != nil {
				t.Fatal(err)
			}
			var lease LeaseReply
			if err := client.Call("Farm.Lease", LeaseArgs{Fingerprint: w.Fingerprint}, &lease); err != nil {
				t.Fatal(err)
			}
			if lease.Done || lease.Wait || coord.jobs[lease.Job].Measure == nil {
				t.Fatalf("uploader got no checkpointed job: %+v", lease)
			}
			var cr CheckpointReply
			if err := client.Call("Farm.Checkpoint", CheckpointArgs{
				Job: lease.Job, Seq: lease.Seq, Cycle: 1000, Snapshot: tc.snapshot(t),
			}, &cr); err != nil {
				t.Fatal(err)
			}
			if st := coord.Stats(); !cr.Held || st.Checkpoints != 1 {
				t.Fatalf("upload refused (held %v, stats %+v); the resume path is not reached", cr.Held, st)
			}
			client.Close() // the hangup releases the lease

			if err := Work(pipe(t, coord), []*Worker{{Name: "healthy"}}); err != nil {
				t.Fatal(err)
			}
			st := coord.Stats()
			if st.Completed != st.Jobs {
				t.Fatalf("farm incomplete: %d of %d (stats %+v)", st.Completed, st.Jobs, st)
			}
			if st.Resumed != 1 {
				t.Errorf("Resumed = %d, want 1: the bad checkpoint was never handed out", st.Resumed)
			}
			results := coord.Results()
			for _, format := range []string{runner.FormatTable, runner.FormatJSON, runner.FormatCSV} {
				farm := render(t, results, format)
				local := renderLocal(t, spec, 2, format)
				if !bytes.Equal(farm, local) {
					t.Errorf("%s output differs after a bad checkpoint:\n--- farm ---\n%s--- local ---\n%s", format, farm, local)
				}
			}
		})
	}
}

// TestFarmLeaseTTLMinimum asserts the coordinator refuses a positive lease
// TTL too short for its janitor to tick, instead of panicking, and still
// reads a TTL of zero or less as the default.
func TestFarmLeaseTTLMinimum(t *testing.T) {
	spec := JobSpec{Kind: "sweep", Exps: []string{"mshr"}, Procs: 3}
	for _, ttl := range []time.Duration{time.Nanosecond, 3 * time.Nanosecond, time.Millisecond - 1} {
		if _, err := NewCoordinator(spec, ttl, 0); err == nil || !strings.Contains(err.Error(), "lease TTL") {
			t.Errorf("NewCoordinator(TTL %v) error = %v, want one naming the lease TTL", ttl, err)
		}
	}
	for _, ttl := range []time.Duration{-time.Second, 0, time.Millisecond} {
		coord, err := NewCoordinator(spec, ttl, 0)
		if err != nil {
			t.Errorf("NewCoordinator(TTL %v): %v", ttl, err)
			continue
		}
		coord.Stop()
	}
}

// fakeCoordinator is a Farm service that greets every worker with a fixed
// Welcome and answers every Lease with a fixed reply: a coordinator that
// may be broken or hostile.
type fakeCoordinator struct {
	welcome Welcome
	lease   LeaseReply
}

func (f *fakeCoordinator) Hello(h Hello, reply *Welcome) error {
	*reply = f.welcome
	return nil
}

func (f *fakeCoordinator) Lease(a LeaseArgs, reply *LeaseReply) error {
	*reply = f.lease
	return nil
}

func (f *fakeCoordinator) Renew(a RenewArgs, reply *RenewReply) error {
	reply.Held = true
	return nil
}

func (f *fakeCoordinator) Complete(a CompleteArgs, reply *CompleteReply) error {
	reply.Accepted = true
	return nil
}

// TestWorkerRefusesHostileCoordinator drives a worker from a fake
// coordinator whose replies no real one sends: a lease TTL too short to
// heartbeat at, a job index outside the enumeration, and a spec too large
// to enumerate. The worker must end its session with an error naming the
// problem, never panic and take its daemon down.
func TestWorkerRefusesHostileCoordinator(t *testing.T) {
	spec := JobSpec{Kind: "sweep", Exps: []string{"mshr"}, Procs: 3}
	valid := newCoord(t, spec, 0, 0).welcome()
	for _, tc := range []struct {
		name string
		edit func(*fakeCoordinator)
		want string
	}{
		{"zero lease TTL", func(f *fakeCoordinator) { f.welcome.LeaseTTL = 0 }, "lease TTL"},
		{"2ns lease TTL", func(f *fakeCoordinator) { f.welcome.LeaseTTL = 2 * time.Nanosecond }, "lease TTL"},
		{"job past the enumeration", func(f *fakeCoordinator) { f.lease.Job = 1 << 20 }, "leased job 1048576"},
		{"negative job", func(f *fakeCoordinator) { f.lease.Job = -1 }, "leased job -1"},
		{"oversized batch", func(f *fakeCoordinator) { f.welcome.Spec = JobSpec{Kind: "conform", N: 1 << 50} }, "program count"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fake := &fakeCoordinator{welcome: valid, lease: LeaseReply{Job: 0, Seq: 1}}
			tc.edit(fake)
			srv := rpc.NewServer()
			if err := srv.RegisterName("Farm", fake); err != nil {
				t.Fatal(err)
			}
			conn, peer := net.Pipe()
			go srv.ServeConn(conn)
			err := Work(peer, []*Worker{{Name: "w"}})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Work error = %v, want one naming %q", err, tc.want)
			}
		})
	}
}
