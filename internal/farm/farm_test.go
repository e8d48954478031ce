package farm

import (
	"bytes"
	"net/rpc"
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
// loopback workers — checkpointing enabled, each worker building the
// shared warmup in its own session cache — renders the exact bytes of a
// local -j 2 run, in every output format.
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
// CheckBatch path (wall time omitted — the one nondeterministic field).
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
	farmOK := conformance.Summarize(&farmOut, farmRep, spec.Seed, spec.N, opts, -1)

	localRep := conformance.CheckBatch(spec.Seed, spec.N, params, 2, opts, nil)
	var localOut bytes.Buffer
	localOK := conformance.Summarize(&localOut, localRep, spec.Seed, spec.N, opts, -1)

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
// pool: a -workers list of local:N entries with no daemon and no -listen
// is an error that names -j, and no job runs.
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

// dialCoord starts a coordinator on loopback and returns a raw RPC client
// to it, for handshake- and protocol-level tests.
func dialCoord(t *testing.T, spec JobSpec, ttl time.Duration, every uint64) (*Coordinator, *rpc.Client) {
	t.Helper()
	coord, err := NewCoordinator(spec, ttl, every)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	ln, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	client, err := rpc.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return coord, client
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
			coord, client := dialCoord(t, spec, 0, 0)
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
	_, client := dialCoord(t, spec, 0, 0)
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
