package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"mcmsim/internal/experiments"
	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
)

var update = flag.Bool("update", false, "rewrite digests.go from the current simulator")

// TestPaperDigests checks the stored digests against a fresh run of every
// stored op at DefaultSeed; -update rewrites them instead.
func TestPaperDigests(t *testing.T) {
	jobs := paperJobs(DefaultSeed)
	results := runner.Run(jobs, runner.Options{Workers: 1, WarmupCache: runner.NewWarmupCache()})
	got := map[string]string{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		if _, dup := got[r.Name]; dup {
			t.Fatalf("job name %s is not unique; digests are keyed by name", r.Name)
		}
		got[r.Name] = digest(r.Row)
	}
	fig5, err := experiments.RunFigure5()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		writeDigests(t, got, fig5)
		return
	}
	if len(got) != len(paperDigests) {
		t.Errorf("%d jobs, %d stored digests", len(got), len(paperDigests))
	}
	for name, d := range got {
		if paperDigests[name] != d {
			t.Errorf("%s: digest %s, stored %s", name, d, paperDigests[name])
		}
	}
	if err := checkFigure5(fig5, nil); err != nil {
		t.Error(err)
	}
}

func writeDigests(t *testing.T, got map[string]string, fig5 experiments.Figure5Result) {
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	var b bytes.Buffer
	b.WriteString(`package main

// Stored outputs of the seedless ops and of the seeded ones at DefaultSeed.
// Regenerate with ` + "`go test -run TestPaperDigests -update`" + ` after a change
// that is meant to alter simulated results.

`)
	fmt.Fprintf(&b, "const (\n\tfigure5Cycles = %d\n\tfigure5Digest = %q\n)\n\n", fig5.Cycles, digest(fig5.Trace.String()))
	b.WriteString("// paperDigests maps each E1-E15 job to the digest of its row.\nvar paperDigests = map[string]string{\n")
	for _, n := range names {
		fmt.Fprintf(&b, "\t%q: %q,\n", n, got[n])
	}
	b.WriteString("}\n")
	if err := os.WriteFile("digests.go", b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	cases := []struct {
		xs      []float64
		q, want float64
	}{
		{nil, 0.5, 0},
		{[]float64{3}, 0.5, 3},
		{[]float64{5, 1, 3}, 0.5, 3},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.9, 4.6},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestAggregate(t *testing.T) {
	// Input 0 ran three times, one of them disturbed; input 1 ran once.
	byInput := [][]float64{{1, 9, 1.2}, {4}}
	if got, want := aggregate(byInput, false), (1.2+4)/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("median over passes = %v, want %v", got, want)
	}
	if got, want := aggregate(byInput, true), (1.2+4)/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean over parts = %v, want %v", got, want)
	}
	// Four like inputs and one costly one: the median ignores it, the
	// mean over parts counts it.
	byInput = [][]float64{{1}, {1.1}, {0.9}, {1}, {6}}
	if got := aggregate(byInput, false); got != 1 {
		t.Errorf("median over passes = %v, want 1", got)
	}
	if got, want := aggregate(byInput, true), 2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean over parts = %v, want %v", got, want)
	}
	if _, ok := bench(&conformW{}).(partitioned); !ok {
		t.Error("conform is not partitioned")
	}
	if _, ok := bench(&paperW{}).(partitioned); ok {
		t.Error("paper is partitioned")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// Span indices start at base 10, as they would in a later pass.
	spans := []span{
		{name: "job", start: ms(0), end: ms(100), parent: -1},
		{name: "sim.build", start: ms(0), end: ms(20), parent: 10},
		{name: "sim.drive", start: ms(20), end: ms(90), parent: 10},
		{name: "cpu.frontend", start: ms(20), end: ms(50), parent: 12},
		{name: "cache.tick", start: ms(40), end: ms(60), parent: 12},  // overlaps its sibling
		{name: "cpu.frontend", start: ms(95), end: ms(99), parent: 9}, // parent in an earlier pass
	}
	got := selfTimes(spans, 10)
	want := map[string]time.Duration{
		"job":          ms(10), // 100 - (20 + 70)
		"sim.build":    ms(20),
		"sim.drive":    ms(30), // 70 - union(20..60)
		"cpu.frontend": ms(34),
		"cache.tick":   ms(20),
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %v, want %v", k, got[k], v)
		}
	}
}

func TestParseProcStat(t *testing.T) {
	const sample = `cpu  100 5 50 1000 20 3 7 40 11 0
cpu0 50 2 25 500 10 1 3 20 5 0
intr 12345
`
	st, err := parseProcStat(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	// guest and guest_nice are inside user and nice, so they stay out.
	if want := (cpuStat{total: 100 + 5 + 50 + 1000 + 20 + 3 + 7 + 40, idle: 1020, steal: 40}); st != want {
		t.Errorf("parsed %+v, want %+v", st, want)
	}
	// Old kernels print only four fields.
	st, err = parseProcStat(strings.NewReader("cpu 1 2 3 4\n"))
	if err != nil || st.total != 10 || st.idle != 4 || st.steal != 0 {
		t.Errorf("short line: %+v, %v", st, err)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4\n", "cpu 1 x 3 4\n"} {
		if _, err := parseProcStat(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
	steal, idle := shares(cpuStat{total: 1000, idle: 400, steal: 10}, cpuStat{total: 1200, idle: 450, steal: 30})
	if math.Abs(steal-0.1) > 1e-12 || math.Abs(idle-0.25) > 1e-12 {
		t.Errorf("shares = %v, %v, want 0.1, 0.25", steal, idle)
	}
	if s, i := shares(cpuStat{total: 5}, cpuStat{total: 5}); s != 0 || i != 0 {
		t.Errorf("shares over no time = %v, %v", s, i)
	}
}

func TestTally(t *testing.T) {
	var tl tally
	tl.check("a", nil)
	tl.check("a", nil)
	tl.check("b", nil)
	tl.check("b", mismatchf("first"))
	tl.check("b", mismatchf("second"))
	if tl.attempted() != 2 || fmt.Sprint(tl.failedNames()) != "[b]" || tl.first["b"] != "first" || !tl.incorrect {
		t.Errorf("after a reference mismatch: attempted %d, failed %v, first %q, incorrect %v",
			tl.attempted(), tl.failedNames(), tl.first["b"], tl.incorrect)
	}

	// An op that errs, or a program the oracle rejects, fails without
	// making the run's output incorrect.
	var conf tally
	conf.check("conform/seed1", nil)
	conf.check("conform/seed2", fmt.Errorf("violation"))
	conf.check("reissue/flush-always", fmt.Errorf("sim: no convergence"))
	if conf.attempted() != 3 || len(conf.failedNames()) != 2 || conf.incorrect {
		t.Errorf("defects: attempted %d, failed %v, incorrect %v", conf.attempted(), conf.failedNames(), conf.incorrect)
	}
	if !errors.As(fmt.Errorf("wrapped: %w", mismatchf("x")), new(mismatch)) {
		t.Error("a wrapped mismatch is not recognized")
	}
}

// TestConformPasses checks that a conform run's passes, traced or not,
// are batches of the same shape that cover its whole block.
func TestConformPasses(t *testing.T) {
	w, err := newWorkload("conform", 3)
	if err != nil {
		t.Fatal(err)
	}
	c := w.(*conformW)
	if c.passes()*c.batch != conformPrograms || c.batch != conformBatch || c.first != 1025 {
		t.Errorf("%d passes of %d programs from %d", c.passes(), c.batch, c.first)
	}
	if (firstPass{w}).passes() != 1 {
		t.Error("the traced run does not repeat one pass")
	}
}

// TestSetupTiming checks that a pass's set-up is timed over repetitions
// and reported per set-up.
func TestSetupTiming(t *testing.T) {
	var clk passClock
	calls := 0
	clk.setup(func() {
		calls++
		time.Sleep(time.Millisecond)
	})
	// Each of the timings spans at least setupSpan of 1 ms set-ups.
	if least := setupTimings * int(setupSpan/(2*time.Millisecond)); calls < least {
		t.Errorf("%d set-ups, want at least %d", calls, least)
	}
	if clk.s.setup < time.Millisecond || clk.s.setup > setupSpan {
		t.Errorf("set-up %v, want about 1ms", clk.s.setup)
	}
}

// TestConformKnownDefect runs the workload's pass over program 1039 alone,
// whose 9 WC cells under speculative loads fail on MESI at head: the
// program must count as one failed op, never be skipped.
func TestConformKnownDefect(t *testing.T) {
	if conformFirst(3) > 1039 || conformFirst(3)+conformPrograms <= 1039 {
		t.Fatalf("seed 3 no longer covers program 1039")
	}
	w := &conformW{first: 1039, n: 1, batch: 1}
	var tl tally
	if _, err := w.pass(0, &tl, nil); err != nil {
		t.Fatal(err)
	}
	if tl.attempted() != 1 || fmt.Sprint(tl.failedNames()) != "[conform/seed1039]" {
		t.Fatalf("attempted %d, failed %v; want program 1039 counted as the one failed op", tl.attempted(), tl.failedNames())
	}
	if !strings.Contains(tl.first["conform/seed1039"], "WC/") {
		t.Errorf("unexpected failure: %s", tl.first["conform/seed1039"])
	}
	// The traced path reaches the same verdict.
	var traced tally
	w2 := &conformW{first: 1039, n: 1, batch: 1}
	if _, err := w2.pass(0, &traced, newTracer()); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(traced.failedNames()) != "[conform/seed1039]" {
		t.Errorf("traced pass failed %v", traced.failedNames())
	}
}

// TestPhaseDriveByteIdentical steps a sample of jobs with the traced
// per-phase drive and requires the row and StatsReport System.Run gives.
func TestPhaseDriveByteIdentical(t *testing.T) {
	paper := paperJobs(DefaultSeed)
	var jobs []runner.Job
	for i := 0; i < len(paper); i += 9 {
		jobs = append(jobs, paper[i])
	}
	jobs = append(jobs, experiments.ScaleSweepJobs([]int{16}, "mesh")...)
	// A machine that runs out of cycles must fail exactly as System.Run
	// fails: same error, same cycle, same StatsReport.
	stuck := jobs[0]
	configure := stuck.Configure
	stuck.Name += "/stuck"
	stuck.Configure = func() (*sim.System, error) {
		s, err := configure()
		if err == nil {
			s.Cfg.MaxCycles = 50
		}
		return s, err
	}
	jobs = append(jobs, stuck)
	cache := runner.NewWarmupCache()
	tr := newTracer()
	split, stuckSplit := 0, false
	for _, j := range jobs {
		if j.Measure == nil {
			continue
		}
		want := driveJob(j, cache, drivePlain, nil)
		got := driveJob(j, cache, driveSplit, tr)
		if (want.res.Err != nil) != (j.Name == stuck.Name) {
			t.Fatalf("%s: System.Run: %v", j.Name, want.res.Err)
		}
		if want.res.Err != nil {
			stuckSplit = true
		}
		if newRunRef(got) != newRunRef(want) {
			t.Errorf("%s: row %v (error %v), System.Run gives %v (error %v)", j.Name, got.res.Row, got.res.Err, want.res.Row, want.res.Err)
		}
		if got.sys.StatsReport() != want.sys.StatsReport() {
			t.Errorf("%s: StatsReport differs from System.Run's", j.Name)
		}
		split++
	}
	if !stuckSplit {
		t.Error("the non-converging machine was not split")
	}
	if split < 10 || tr.counters["sim.stepped_cycles"] == 0 || tr.counters["sim.node_ticks"] < tr.counters["sim.busy_nodes"] {
		t.Errorf("split %d jobs; counters %v", split, tr.counters)
	}
	m := layerMetrics(tr, nil)
	for _, k := range []string{"cpu.tick_s", "core.tick_s", "cache.tick_s", "coherence.tick_s", "network.deliver_s", "sim.horizon_s"} {
		if m[k] <= 0 {
			t.Errorf("%s = %v after %d split drives", k, m[k], split)
		}
	}
}

func TestCountParallel(t *testing.T) {
	const rep = `parsim: shards=3 workers=2 window=1 windows=40 exchanged=9 global_jumps=2 ff_cycles=5 shard_steps=100 shard_skipped=7
parsim: engine=optimistic horizon=64 checkpoints=4 rollbacks=3 replayed_cycles=12 max_optimism=30 cons_windows=1
  cpu0   windows=40 steps=50 skipped=3 idle_tails=10 delivered=4 sent=5
  home0  windows=20 steps=50 skipped=4 idle_tails=5 delivered=5 sent=4
`
	tr := newTracer()
	tr.countParallel(rep)
	tr.countParallel("") // an engine that declined
	m := layerMetrics(tr, nil)
	want := map[string]float64{
		"parsim.windows": 40, "parsim.shard_steps": 100, "parsim.rollbacks": 3,
		"parsim.replayed_cycles": 12, "parsim.idle_tail_ratio": 0.25, "parsim.engine": 1,
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

// TestWorkloadPasses runs one untraced and one traced pass of the paper,
// mesh and farm workloads: every op must pass its check.
func TestWorkloadPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"paper", "mesh", "farm"} {
		w, err := newWorkload(name, DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		var tl tally
		s, err := w.pass(0, &tl, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := w.pass(0, &tl, newTracer()); err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if f := tl.failedNames(); len(f) > 0 || tl.incorrect {
			t.Errorf("%s: failed ops %v: %v", name, f, tl.first)
		}
		if s.wall <= 0 || s.cpu <= 0 || s.alloc == 0 || s.setup <= 0 {
			t.Errorf("%s: sample %+v", name, s)
		}
	}
}

// TestBenchmarkManifest keeps BENCHMARK.json and this program in step.
func TestBenchmarkManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	e2e := map[string]string{"setup_s": "s", "wall_s": "s", "cpu_s": "s", "alloc_mb": "MB"}
	if len(man.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics, program reports %d", len(man.EndToEnd), len(e2e))
	}
	for _, m := range man.EndToEnd {
		if e2e[m.Name] != m.Unit || m.Better != "lower" {
			t.Errorf("end-to-end %+v does not match the program", m)
		}
	}
	if len(man.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, program has %d", len(man.PerLayer), len(perLayer))
	}
	for i, m := range man.PerLayer {
		p := perLayer[i]
		if m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
			t.Errorf("per-layer %d: manifest %+v, program %+v", i, m, p)
		}
	}
}
