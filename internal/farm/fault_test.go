package farm

import (
	"bytes"
	"errors"
	"net/rpc"
	"testing"
	"time"

	"mcmsim/internal/isa"
	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
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
			ln, err := coord.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			addr := ln.Addr().String()

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
			if err := victim.Run(addr); !errors.Is(err, injected) {
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
			if err := (&Worker{Name: "healthy"}).Run(addr); err != nil {
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
	coord, err := NewCoordinator(spec, 100*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()
	ln, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	// The staller leases a job over a raw connection and never heartbeats.
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
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
	if err := (&Worker{Name: "healthy"}).Run(addr); err != nil {
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

// tinySnapshot builds a valid serialized machine snapshot (any machine —
// the coordinator validates framing and version, not job identity).
func tinySnapshot(t *testing.T) []byte {
	t.Helper()
	cfg := sim.PaperConfig()
	cfg.Procs = 2
	halt := isa.NewBuilder().Halt().Build()
	s := sim.New(cfg, []*isa.Program{halt, halt})
	m, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeMachine(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
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
	if held := coord.checkpoint(sess, CheckpointArgs{Job: lease.Job, Seq: lease.Seq, Cycle: 1000, Snapshot: good}); !held {
		t.Fatal("valid checkpoint refused")
	}
	if st := coord.Stats(); st.Checkpoints != 1 {
		t.Fatalf("Checkpoints = %d, want 1", st.Checkpoints)
	}

	// Garbage payload and truncated payload (a worker dying mid-upload):
	// both refused, lease intact, stored checkpoint untouched.
	for _, bad := range [][]byte{[]byte("not a snapshot"), good[:len(good)/2]} {
		if held := coord.checkpoint(sess, CheckpointArgs{Job: lease.Job, Seq: lease.Seq, Cycle: 2000, Snapshot: bad}); !held {
			t.Error("corrupt upload revoked the lease; it should only refuse the payload")
		}
	}
	// Stale lease: refused outright, before the payload is decoded (a
	// decode of even this small snapshot allocates hundreds of objects).
	stale := CheckpointArgs{Job: lease.Job, Seq: lease.Seq + 99, Cycle: 2000, Snapshot: good}
	if held := coord.checkpoint(sess, stale); held {
		t.Error("checkpoint accepted under a stale lease")
	}
	if allocs := testing.AllocsPerRun(5, func() { coord.checkpoint(sess, stale) }); allocs > 0 {
		t.Errorf("a stale-lease upload allocates %.0f objects; it must be refused before decoding", allocs)
	}
	st := coord.Stats()
	if st.CheckpointsRejected != 3+6 {
		t.Errorf("CheckpointsRejected = %d, want 9", st.CheckpointsRejected)
	}
	if st.Checkpoints != 1 {
		t.Errorf("Checkpoints = %d, want 1 (corrupt uploads must not count)", st.Checkpoints)
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
