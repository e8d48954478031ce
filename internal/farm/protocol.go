package farm

import (
	"fmt"
	"runtime/debug"
	"time"

	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
)

// ProtocolVersion is the farm wire protocol. Bumped on any change to the
// RPC methods, their argument and reply types, or who dials whom; mixed
// fleets are rejected at handshake. Version 2 dropped the warmup-store
// calls; version 3 has the coordinator dial every worker connection and
// drops the daemon's Attach call and the Stats call.
const ProtocolVersion = 3

// Hello is the worker's side of the handshake, sent by each worker loop as
// its first call on the connection the coordinator opened. The coordinator
// validates it before anything else moves.
type Hello struct {
	Protocol int    // ProtocolVersion of the worker's build
	Snapshot int    // sim.SnapshotVersion of the worker's build
	Build    string // BuildHash of the worker's binary ("" if unstamped)
	Worker   string // display name for logs and stats
}

// Welcome is the coordinator's side of the handshake. It carries the same
// version triple (so the worker can reject an incompatible coordinator
// symmetrically) plus everything the worker needs to reproduce the job
// list: the serialized spec and the coordinator's enumeration fingerprint.
type Welcome struct {
	Protocol int
	Snapshot int
	Build    string

	Spec        JobSpec
	Jobs        int    // number of jobs the coordinator enumerated
	Fingerprint string // Fingerprint(spec, jobs); the worker must reproduce it

	LeaseTTL        time.Duration // leases expire this long after grant/renew
	CheckpointEvery uint64        // cycles between checkpoints; 0 = no checkpointing
}

// LeaseArgs requests one job. The fingerprint repeats on every lease so a
// worker that somehow enumerated a divergent job list can never be handed
// work, even past the handshake.
type LeaseArgs struct {
	Fingerprint string
}

// LeaseReply grants a job, asks the worker to wait, or ends the session.
type LeaseReply struct {
	Done bool // every job is complete; the worker should exit
	Wait bool // nothing leasable right now; retry shortly

	Job int    // job index into the shared enumeration
	Seq uint64 // lease sequence number; quote it on Renew/Checkpoint/Complete

	// Checkpoint, when non-nil, is a mid-flight machine snapshot of this
	// job from a previous lease; the worker resumes from it instead of
	// starting at cycle zero. Absent for opaque (Run) jobs, which restart.
	Checkpoint []byte
	// CheckpointCycle is the snapshot's absolute cycle, for logs.
	CheckpointCycle uint64
}

// RenewArgs extends a lease's deadline (the worker heartbeats at TTL/3).
type RenewArgs struct {
	Job int
	Seq uint64
}

// RenewReply reports whether the lease is still held. Held=false means the
// coordinator reassigned the job; the worker must abandon it.
type RenewReply struct {
	Held bool
}

// CheckpointArgs uploads a mid-flight snapshot of a leased job.
type CheckpointArgs struct {
	Job      int
	Seq      uint64
	Cycle    uint64 // absolute machine cycle of the snapshot
	Snapshot []byte
}

// CheckpointReply acknowledges a checkpoint. Held=false means the lease
// was lost (the job is someone else's now); the worker must abandon it.
type CheckpointReply struct {
	Held bool
}

// WireResult is runner.Result in wire-safe form (error flattened to its
// message; an error crossing the farm boundary compares by text anyway).
type WireResult struct {
	Name  string
	Row   runner.Row
	Err   string
	Wall  time.Duration
	Cycle uint64 // the row's simulated cycles, for progress reporting
}

// CompleteArgs delivers a finished job's result.
type CompleteArgs struct {
	Job    int
	Seq    uint64
	Result WireResult
}

// CompleteReply acknowledges a completion. Accepted=false means the lease
// was stale (the job was reassigned and another worker's result counts).
type CompleteReply struct {
	Accepted bool
}

// BuildHash identifies the running binary by its VCS revision, with a
// "+dirty" suffix for modified trees. Unstamped builds (go test, go run
// outside a stamped module) return "" — the handshake then skips the
// build comparison, since "" carries no information.
func BuildHash() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	return rev + dirty
}

// compatible rejects a fleet member whose build cannot interoperate:
// differing wire protocol, differing snapshot format (snapshot bytes would
// be misread — refused before any deserialization is attempted), or
// differing VCS builds (same formats, but simulations could diverge and
// silently break byte-identity). Builds compare only when both sides are
// stamped; "" means unstamped, not "matches anything stamped".
func compatible(protocol, snapVersion int, build, selfBuild string) error {
	if protocol != ProtocolVersion {
		return fmt.Errorf("farm protocol v%d vs v%d", protocol, ProtocolVersion)
	}
	if snapVersion != sim.SnapshotVersion {
		return fmt.Errorf("snapshot format v%d vs v%d (mixed builds cannot exchange checkpoints)",
			snapVersion, sim.SnapshotVersion)
	}
	if build != "" && selfBuild != "" && build != selfBuild {
		return fmt.Errorf("build %s vs %s (mixed-revision fleets can diverge silently)", build, selfBuild)
	}
	return nil
}

// toWire flattens a runner.Result for transport.
func toWire(r runner.Result) WireResult {
	w := WireResult{Name: r.Name, Row: r.Row, Wall: r.Wall, Cycle: r.Row.Cycles}
	if r.Err != nil {
		w.Err = r.Err.Error()
	}
	return w
}

// fromWire inverts toWire.
func fromWire(w WireResult) runner.Result {
	r := runner.Result{Name: w.Name, Row: w.Row, Wall: w.Wall}
	if w.Err != "" {
		r.Err = fmt.Errorf("%s", w.Err)
	}
	return r
}
