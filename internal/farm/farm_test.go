package farm

import (
	"bytes"
	"fmt"
	"net"
	"net/rpc"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mcmsim/internal/conformance"
	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
)

// renderLocal runs the spec on the classic in-process pool (with the
// snapshot cache, like cmd/sweep's default) through a fleet with no remote
// entry — the path cmd/sweep and cmd/conform take without -workers — and
// renders it in the given format: the byte-reference every farm test
// compares against.
func renderLocal(t *testing.T, spec JobSpec, workers int, format string) []byte {
	t.Helper()
	results, _, err := (&Fleet{}).Run(spec, runner.Options{Workers: workers, WarmupCache: runner.NewWarmupCache()})
	if err != nil {
		t.Fatal(err)
	}
	return render(t, results, format)
}

func render(t *testing.T, results []runner.Result, format string) []byte {
	t.Helper()
	rows, err := runner.Rows(results)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runner.WriteReport(&buf, format, []runner.Table{{Name: "farm", Rows: rows}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFarmSuiteByteIdentical is the headline gate: a coordinator plus two
// in-process workers on pipes — checkpointing enabled, each worker
// building the shared warmup in its own session cache — renders the exact
// bytes of a local -j 2 run, in every output format.
func TestFarmSuiteByteIdentical(t *testing.T) {
	t.Parallel()
	spec := JobSpec{Kind: "sweep", Exps: []string{"equalization", "warmequal"}, Procs: 3, Seed: 7}
	results, stats, err := Run(spec, Options{LocalWorkers: 2, CheckpointEvery: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != stats.Jobs {
		t.Fatalf("completed %d of %d jobs", stats.Completed, stats.Jobs)
	}
	for _, format := range []string{runner.FormatTable, runner.FormatJSON, runner.FormatCSV} {
		farm := render(t, results, format)
		local := renderLocal(t, spec, 2, format)
		if !bytes.Equal(farm, local) {
			t.Errorf("%s output differs:\n--- farm ---\n%s--- local -j 2 ---\n%s", format, farm, local)
		}
	}
}

// TestFarmConformParity runs a conformance batch through the farm and
// asserts the reassembled report renders byte-identically to the local
// CheckBatch path.
func TestFarmConformParity(t *testing.T) {
	t.Parallel()
	spec := JobSpec{Kind: "conform", Seed: 1, N: 4, Quick: true}
	params, opts, err := ConformOptions(spec)
	if err != nil {
		t.Fatal(err)
	}

	results, _, err := Run(spec, Options{LocalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	farmRep := conformance.BatchReport(spec.Seed, spec.N, params, results)
	var farmOut bytes.Buffer
	farmOK := conformance.Summarize(&farmOut, farmRep, spec.Seed, spec.N, opts)

	localRep := conformance.CheckBatch(spec.Seed, spec.N, params, 2, opts, nil)
	var localOut bytes.Buffer
	localOK := conformance.Summarize(&localOut, localRep, spec.Seed, spec.N, opts)

	if farmOK != localOK {
		t.Errorf("farm verdict %v, local verdict %v", farmOK, localOK)
	}
	if !bytes.Equal(farmOut.Bytes(), localOut.Bytes()) {
		t.Errorf("conform reports differ:\n--- farm ---\n%s--- local ---\n%s", farmOut.Bytes(), localOut.Bytes())
	}
	if !localOK {
		t.Errorf("conformance batch unexpectedly dirty:\n%s", localOut.Bytes())
	}
}

// TestFarmConcurrentSpecs runs two farms at once in one process, on specs
// that differ only in Protocol. Every setting reaches the jobs inside its
// own spec, so neither farm can see the other's: each must render exactly
// like its spec run alone on the in-process pool.
func TestFarmConcurrentSpecs(t *testing.T) {
	t.Parallel()
	specs := []JobSpec{
		{Kind: "sweep", Exps: []string{"mshr"}, Procs: 3, Protocol: "msi"},
		{Kind: "sweep", Exps: []string{"mshr"}, Procs: 3, Protocol: "mesi"},
	}
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		want[i] = renderLocal(t, spec, 1, runner.FormatCSV)
	}
	if bytes.Equal(want[0], want[1]) {
		t.Fatal("the msi and mesi specs render identically; the test cannot tell them apart")
	}
	results := make([][]runner.Result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], _, errs[i] = Run(spec, Options{LocalWorkers: 2})
		}()
	}
	wg.Wait()
	for i, spec := range specs {
		if errs[i] != nil {
			t.Fatalf("%s farm: %v", spec.Protocol, errs[i])
		}
		if got := render(t, results[i], runner.FormatCSV); !bytes.Equal(got, want[i]) {
			t.Errorf("%s farm run concurrently with another spec rendered:\n%s--- want (run alone) ---\n%s", spec.Protocol, got, want[i])
		}
	}
}

// TestFleetLocalOnlyWorkersRejected asserts -j alone sizes the in-process
// pool: a -workers list of local:N entries with no daemon is an error that
// names -j, and no job runs.
func TestFleetLocalOnlyWorkersRejected(t *testing.T) {
	spec := JobSpec{Kind: "sweep", Exps: []string{"mshr"}, Procs: 3}
	for _, workers := range []string{"local:2", "local:1,local:3"} {
		results, _, err := (&Fleet{workers: workers}).Run(spec, runner.Options{Workers: 1})
		if err == nil || !strings.Contains(err.Error(), "-j") {
			t.Errorf("-workers %s: error %v, want one that names -j", workers, err)
		}
		if results != nil {
			t.Errorf("-workers %s ran %d jobs", workers, len(results))
		}
	}
}

// pipe serves coord's Farm service on one end of an in-memory connection,
// as farm.Run serves each worker, and returns the worker's end: wrap it in
// rpc.NewClient for protocol-level calls, or hand it to Work.
func pipe(t *testing.T, coord *Coordinator) net.Conn {
	t.Helper()
	conn, peer := net.Pipe()
	go coord.serve(conn, handshakeTimeout)
	t.Cleanup(func() { peer.Close() })
	return peer
}

// newCoord builds a coordinator that the test stops when it ends.
func newCoord(t *testing.T, spec JobSpec, ttl time.Duration, every uint64) *Coordinator {
	t.Helper()
	coord, err := NewCoordinator(spec, ttl, every)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	return coord
}

// TestFarmHandshakeVersionMismatch asserts a mismatched fleet member is
// rejected at Hello — before any job, snapshot or checkpoint moves — with
// an error naming the disagreeing version.
func TestFarmHandshakeVersionMismatch(t *testing.T) {
	spec := JobSpec{Kind: "sweep", Exps: []string{"equalization"}, Procs: 3, Seed: 7}

	cases := []struct {
		name string
		prep func(c *Coordinator, h *Hello)
		want string
	}{
		{"snapshot", func(c *Coordinator, h *Hello) { h.Snapshot++ }, "snapshot format"},
		{"protocol", func(c *Coordinator, h *Hello) { h.Protocol++ }, "farm protocol"},
		{"build", func(c *Coordinator, h *Hello) {
			c.build = "rev-coordinator"
			h.Build = "rev-worker"
		}, "build rev-worker vs rev-coordinator"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord := newCoord(t, spec, 0, 0)
			client := rpc.NewClient(pipe(t, coord))
			h := Hello{Protocol: ProtocolVersion, Snapshot: sim.SnapshotVersion, Build: "", Worker: "mismatched"}
			tc.prep(coord, &h)
			var w Welcome
			err := client.Call("Farm.Hello", h, &w)
			if err == nil {
				t.Fatalf("%s mismatch accepted", tc.name)
			}
			if !bytes.Contains([]byte(err.Error()), []byte(tc.want)) {
				t.Errorf("error %q does not name the mismatch (want substring %q)", err, tc.want)
			}
			// The rejected connection must not be able to lease anyway.
			var lr LeaseReply
			if err := client.Call("Farm.Lease", LeaseArgs{}, &lr); err == nil {
				t.Error("lease granted to a connection that failed the handshake")
			}
		})
	}
}

// TestFarmFingerprintMismatch asserts a worker whose enumeration diverges
// from the coordinator's is refused work, and that a spec no enumerator
// can build is an error — never a panic — both for a coordinator and for a
// worker that receives it over the wire.
func TestFarmFingerprintMismatch(t *testing.T) {
	bad := []JobSpec{
		{Kind: "bogus"},
		{Kind: "sweep", Exps: []string{"mshr"}, Procs: 3, Protocol: "moesi"},
		{Kind: "sweep", Exps: []string{"bogus"}, Procs: 3},
		{Kind: "sweep", Exps: []string{"scale"}, Procs: 3, ScaleCPUs: []int{16, 0}},
		{Kind: "sweep", Exps: []string{"scale"}, Procs: 3, Topo: "mesh:bad"},
		{Kind: "sweep", Exps: []string{"equalization"}, Procs: -1},
		{Kind: "sweep", Exps: []string{"equalization"}, Procs: 0},
		{Kind: "conform", N: 1, Protocol: "moesi"},
		{Kind: "conform", N: 1, Topo: "ring"},
		{Kind: "conform", N: -1},
		// Sizes past sim.Config.Resolve's 4096-node limit, and a batch
		// too large to generate: a worker enumerates whatever spec it is
		// sent, so each must be refused before anything is allocated.
		{Kind: "sweep", Exps: []string{"equalization"}, Procs: 5000},
		{Kind: "sweep", Exps: []string{"scale"}, Procs: 3, ScaleCPUs: []int{5000}},
		{Kind: "sweep", Exps: []string{"scale"}, Procs: 3, ScaleCPUs: []int{16}, Topo: "mesh:4097x1"},
		{Kind: "conform", N: 1, Procs: 5000},
		{Kind: "conform", N: 1, PadCPUs: 5000},
		{Kind: "conform", N: 1 << 50},
	}
	for _, spec := range bad {
		if _, err := Enumerate(spec); err == nil {
			t.Errorf("Enumerate accepted the bad spec %+v", spec)
		}
		if _, err := NewCoordinator(spec, 0, 0); err == nil {
			t.Errorf("NewCoordinator accepted the bad spec %+v", spec)
		}
	}

	spec := JobSpec{Kind: "sweep", Exps: []string{"equalization"}, Procs: 3, Seed: 7}
	client := rpc.NewClient(pipe(t, newCoord(t, spec, 0, 0)))
	var w Welcome
	if err := client.Call("Farm.Hello", Hello{Protocol: ProtocolVersion, Snapshot: sim.SnapshotVersion, Worker: "divergent"}, &w); err != nil {
		t.Fatal(err)
	}
	var lr LeaseReply
	err := client.Call("Farm.Lease", LeaseArgs{Fingerprint: "not-the-fingerprint"}, &lr)
	if err == nil {
		t.Fatal("divergent fingerprint was leased a job")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("fingerprint mismatch")) {
		t.Errorf("error %q does not name the fingerprint mismatch", err)
	}
}

// serveDaemon accepts connections on a fresh loopback listener and hands
// each to handle, as a sweepd daemon would; it returns the address for
// Options.Daemons.
func serveDaemon(t *testing.T, handle func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go handle(conn)
		}
	}()
	return ln.Addr().String()
}

// runFarm runs the mshr sweep through farm.Run in the background and
// returns its error, failing the test unless it returns within limit.
func runFarm(t *testing.T, opts Options, limit time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, _, err := Run(JobSpec{Kind: "sweep", Exps: []string{"mshr"}, Procs: 3}, opts)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		t.Fatalf("farm.Run still waiting after %v", limit)
		return nil
	}
}

// TestFarmDaemonByteIdentical runs TestFarmSuiteByteIdentical's spec on
// one sweepd daemon whose two worker loops share the one connection the
// coordinator dialed: the report must render the local pool's bytes.
func TestFarmDaemonByteIdentical(t *testing.T) {
	t.Parallel()
	spec := JobSpec{Kind: "sweep", Exps: []string{"equalization", "warmequal"}, Procs: 3, Seed: 7}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go (&Daemon{Name: "d", Workers: 2}).Serve(ln)

	results, stats, err := Run(spec, Options{Daemons: []string{ln.Addr().String()}, CheckpointEvery: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != stats.Jobs || stats.Workers != 2 {
		t.Fatalf("completed %d of %d jobs with %d handshakes, want every job and 2 handshakes", stats.Completed, stats.Jobs, stats.Workers)
	}
	for _, format := range []string{runner.FormatTable, runner.FormatJSON, runner.FormatCSV} {
		farm := render(t, results, format)
		local := renderLocal(t, spec, 2, format)
		if !bytes.Equal(farm, local) {
			t.Errorf("%s output differs:\n--- farm ---\n%s--- local -j 2 ---\n%s", format, farm, local)
		}
	}
}

// TestFarmInvitesAllRefused asserts a farm whose only workers are a
// daemon's loops, every one refused at the handshake, returns an error
// naming the refusal instead of waiting forever, and reports each refused
// worker through OnWorkerError. The daemon stands in for a sweepd from an
// older build: its two loops share the connection the coordinator dialed
// and greet with the previous farm protocol.
func TestFarmInvitesAllRefused(t *testing.T) {
	const loops = 2
	addr := serveDaemon(t, func(conn net.Conn) {
		client := rpc.NewClient(conn)
		defer client.Close()
		var wg sync.WaitGroup
		for i := 0; i < loops; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				hello := Hello{Protocol: ProtocolVersion - 1, Snapshot: sim.SnapshotVersion, Worker: fmt.Sprintf("stale%d", i)}
				var w Welcome
				_ = client.Call("Farm.Hello", hello, &w) // refused; the coordinator reports it
			}()
		}
		wg.Wait()
	})

	var mu sync.Mutex
	var reported []string
	err := runFarm(t, Options{
		Daemons: []string{addr},
		OnWorkerError: func(name string, err error) {
			mu.Lock()
			reported = append(reported, name+": "+err.Error())
			mu.Unlock()
		},
	}, 20*time.Second)
	if err == nil || !strings.Contains(err.Error(), "farm protocol v") {
		t.Fatalf("farm.Run error = %v, want one naming the farm protocol refusal", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reported) != loops {
		t.Errorf("OnWorkerError saw %d refusals, want %d: %q", len(reported), loops, reported)
	}
	for _, r := range reported {
		if !strings.Contains(r, "farm protocol v") {
			t.Errorf("refusal report %q does not name the protocol mismatch", r)
		}
	}
}

// TestFarmSilentPeer points a farm at a peer that accepts the connection
// and never greets, as a daemon that itself waits to be called would. The
// handshake deadline must end the farm with an error that names the peer
// and the handshake, and report the peer through OnWorkerError.
func TestFarmSilentPeer(t *testing.T) {
	defer func(d time.Duration) { handshakeTimeout = d }(handshakeTimeout)
	handshakeTimeout = 200 * time.Millisecond
	held := make(chan net.Conn, 1)
	t.Cleanup(func() {
		select {
		case c := <-held:
			c.Close()
		default:
		}
	})
	addr := serveDaemon(t, func(conn net.Conn) { held <- conn })

	var reported []string
	start := time.Now()
	err := runFarm(t, Options{
		Daemons:       []string{addr},
		OnWorkerError: func(name string, err error) { reported = append(reported, name+": "+err.Error()) },
	}, 20*time.Second)
	if err == nil || !strings.Contains(err.Error(), addr) || !strings.Contains(err.Error(), "no handshake within") {
		t.Fatalf("farm.Run error = %v, want one naming %s and the handshake", err, addr)
	}
	if took := time.Since(start); took < handshakeTimeout || took > 5*time.Second {
		t.Errorf("farm.Run gave up after %v, want the %v handshake deadline", took, handshakeTimeout)
	}
	if len(reported) != 1 || !strings.Contains(reported[0], addr) {
		t.Errorf("OnWorkerError saw %q, want the silent peer once", reported)
	}
}

// TestFarmPeerHangsUp points a farm at a peer that accepts and closes the
// connection at once, and at an address nothing listens on. The farm must
// fail at once, well inside the handshake deadline, with an error naming
// the first failure, and report both.
func TestFarmPeerHangsUp(t *testing.T) {
	addr := serveDaemon(t, func(conn net.Conn) { conn.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := ln.Addr().String()
	ln.Close()

	var reported []string
	err = runFarm(t, Options{
		Daemons:       []string{addr, closed},
		OnWorkerError: func(name string, err error) { reported = append(reported, name+": "+err.Error()) },
	}, handshakeTimeout/2)
	if err == nil || !strings.Contains(err.Error(), "closed before the farm completed") ||
		(!strings.Contains(err.Error(), addr) && !strings.Contains(err.Error(), closed)) {
		t.Fatalf("farm.Run error = %v, want every connection closed and the first failure named", err)
	}
	if len(reported) != 2 {
		t.Fatalf("OnWorkerError saw %q, want both daemons", reported)
	}
	for _, want := range []string{addr + ": connection closed before the handshake", closed + ": dial"} {
		if !slices.ContainsFunc(reported, func(r string) bool { return strings.HasPrefix(r, want) }) {
			t.Errorf("OnWorkerError saw %q, want a report starting %q", reported, want)
		}
	}
}
