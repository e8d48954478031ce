// Package farm distributes a sweep across a fleet of worker processes
// while keeping every observable byte-identical to a local run.
//
// # Shape
//
// A Coordinator owns one JobSpec — a serializable description from which
// any fleet member re-enumerates the identical []runner.Job list (the
// enumeration is deterministic, and the handshake cross-checks a
// fingerprint of it). The coordinator opens every worker connection: it
// dials each sweepd daemon once, and gives each in-process worker its own
// in-memory net.Pipe. On each connection it serves the Farm service over
// stdlib net/rpc (gob-encoded), and the worker loops at the far end (a
// daemon's -j loops share its one connection) call it as RPC clients —
// net/rpc's roles do not depend on who dialed. Workers pull: each Lease
// hands out one job index under a deadline, the worker executes it
// through the unchanged runner/sim stack, and Complete streams the
// runner.Result row back. Because jobs travel as indices into a shared
// enumeration, no closure ever crosses the wire. Only the coordinator
// needs to reach its workers, never the reverse.
//
// The spec is the whole workload, settings included: the base protocol
// and the workload parameters travel inside it and reach the jobs as
// values (experiments.Params, conformance.CheckOptions), never as process
// state. It holds only settings that change a result; every fleet member
// drives its jobs on the sequential loop. Farms on different specs can
// therefore share one process. cmd/sweep and cmd/conform parse their
// flags into a JobSpec and run it through Fleet.Run — on the in-process
// pool, or on a farm when the fleet flags name a daemon. Enumerate
// validates a spec before building anything, so a bad
// spec from a command line or over the wire is an error, not a panic.
//
// # Why farm output is byte-identical to local -j N
//
// Three properties compose. (1) Every job is an independent deterministic
// simulation: its row depends only on the job, never on which worker ran
// it, when, or after how many retries. (2) The coordinator assembles
// results by job index and releases them in enumeration order — exactly
// the local pool's contract — so completion order, lease order and
// reassignment are all invisible. (3) The only shipped artifacts,
// checkpoints, are machine snapshots, whose restore is
// observation-transparent by the differential gates. The formatters then
// render identical rows to identical bytes.
//
// # Per-loop warmup caches
//
// Warmups never cross the wire. Each worker loop hands its jobs one
// runner.NewWarmupCache as JobOptions.Warmups, the same cache the
// in-process pool uses: the loop simulates each declared warmup
// (runner.WarmupSpec) at most once, and every job, the builder's
// included, restores a private machine from the snapshot, so a farmed job
// measures on the machine a local job would. A fleet of N worker loops
// therefore simulates each warmup key at most N times; the suite declares
// two keys (E6 and E15), both short warmups.
//
// # Fault tolerance
//
// Leases expire — on a missed deadline, or immediately when the worker's
// connection drops, which releases every lease its loops hold — and the
// job returns to the queue for reassignment. A connection that fails to
// open, or whose peer does not complete a Hello within a constant 10 s,
// is closed and reported; once every connection has closed with jobs
// outstanding, Run returns an error naming the first failure instead of
// waiting for workers that cannot come.
//
// Workers running a checkpoint-enabled farm upload interval snapshots of
// Measure jobs (sim.RunCheckpointed slices); a reassigned job resumes
// from its last verified checkpoint instead of cycle zero. Checkpoints
// are verified (snapshot.Verify: header, exact length, CRC-32C; nothing
// is decoded) before they replace the previous one, so a worker dying
// mid-upload, or a payload damaged on the way, can only lose progress,
// never corrupt it. A checkpoint that passes but does not decode or
// restore was written wrong; the worker handed it runs the job from
// cycle zero, as under a lease without a checkpoint. Resume lands on the
// same absolute slice boundaries the uninterrupted run used, so the final
// machine — and the row — is unchanged.
//
// # Version locking
//
// Snapshot bytes are only meaningful between identical builds (the format
// is version-locked). The handshake therefore exchanges sim.SnapshotVersion
// and a VCS build hash both ways and rejects mismatched fleets with a
// clear error before any job or checkpoint moves. The coordinator reports
// each refused worker through Options.OnWorkerError, and a connection
// whose loops were all refused ends the session like any other failure.
// A worker also refuses a coordinator whose Welcome it cannot act on: a
// lease TTL too short to heartbeat at, a spec that does not enumerate,
// or a lease outside the enumeration.
package farm
