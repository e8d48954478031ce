// Command perfbench is the repository's benchmark. It drives one workload
// through the simulator's public entry points for a fixed wall-clock
// budget, checks every op's output, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as one JSON object on the last
// line of standard output. README.md describes the workloads and metrics.
//
//	go run . --workload paper --seed 7 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// minPasses is the fewest passes a run measures, however long they take.
const minPasses = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: paper, conform, mesh, farm, or all")
		seed     = flag.Int64("seed", DefaultSeed, "workload seed")
		seconds  = flag.Float64("seconds", 20, "measure for this many seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "perfbench"), "directory the traced run writes its spans to")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	for _, n := range names {
		res, err := runWorkload(n, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *traceDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		out, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
	}
}

// runWorkload measures one workload and returns its result line.
func runWorkload(name string, seed int64, budget time.Duration, traced bool, traceDir string) (result, error) {
	before, statOK := readProcStat()
	w, err := newWorkload(name, seed)
	if err != nil {
		return result{}, err
	}
	var t tally
	var metrics map[string]metric
	if traced {
		metrics, err = measureTraced(name, w, &t, budget, traceDir)
	} else {
		metrics, err = measure(w, &t, budget)
	}
	if err != nil {
		return result{}, err
	}
	host := newHostInfo()
	if after, ok := readProcStat(); ok && statOK {
		host.StealShare, host.IdleShare = shares(before, after)
	}
	report(name, seed, host, &t, metrics)
	return result{Correct: !t.incorrect, Attempted: t.attempted(), Failed: len(t.failedNames()), Metrics: metrics}, nil
}

// runPasses runs passes until the budget is spent and the op list was
// covered (and at least minPasses ran), collecting a garbage-free heap
// before each so every pass starts from the same heap. each receives the
// pass's input: its position in the op list's cycle of inputs.
func runPasses(w bench, t *tally, tr *tracer, budget time.Duration, each func(int, sample)) error {
	start := time.Now()
	least := max(minPasses, w.passes())
	for i := 0; ; i++ {
		runtime.GC()
		s, err := w.pass(i, t, tr)
		if err != nil {
			return err
		}
		each(i%w.passes(), s)
		if i+1 >= least && time.Since(start) >= budget {
			return nil
		}
	}
}

// measure is an untraced run. Passes cycle through the op list's inputs,
// and each end-to-end metric is the median over the passes, which drops a
// pass the host disturbed and an input of unusual cost (a mixed-workload
// seed whose E14 job does not converge). A partitioned workload reports
// the mean over its parts of each part's median instead.
func measure(w bench, t *tally, budget time.Duration) (map[string]metric, error) {
	n := w.passes()
	setup, wall, cpu, alloc := make([][]float64, n), make([][]float64, n), make([][]float64, n), make([][]float64, n)
	err := runPasses(w, t, nil, budget, func(k int, s sample) {
		setup[k] = append(setup[k], s.setup.Seconds())
		wall[k] = append(wall[k], s.wall.Seconds())
		cpu[k] = append(cpu[k], s.cpu.Seconds())
		alloc[k] = append(alloc[k], float64(s.alloc)/1e6)
	})
	if err != nil {
		return nil, err
	}
	_, parts := w.(partitioned)
	return map[string]metric{
		"setup_s":  {aggregate(setup, parts), "s"},
		"wall_s":   {aggregate(wall, parts), "s"},
		"cpu_s":    {aggregate(cpu, parts), "s"},
		"alloc_mb": {aggregate(alloc, parts), "MB"},
	}, nil
}

// partitioned is a workload whose passes are the parts of one op list,
// of different cost, rather than the op list on inputs of like cost:
// conform's 32-program batches differ up to fivefold in cost, and a median
// over them would ignore the costly ones.
type partitioned interface{ partitioned() }

// aggregate is a run's value of a metric, given each input's passes: the
// median over all passes, or for a partitioned workload the mean over its
// parts of the median over each part's passes, so each part counts by its
// own cost.
func aggregate(byInput [][]float64, parts bool) float64 {
	if !parts {
		var all []float64
		for _, xs := range byInput {
			all = append(all, xs...)
		}
		return median(all)
	}
	var sum float64
	for _, xs := range byInput {
		sum += median(xs)
	}
	return sum / float64(len(byInput))
}

// measureTraced is a traced run: one untraced reference pass, then traced
// passes of the same inputs for the budget. Each per-layer metric is the
// median over the traced passes.
func measureTraced(name string, w bench, t *tally, budget time.Duration, traceDir string) (map[string]metric, error) {
	// The second of two untraced passes is the reference: the first pays
	// for heap growth the traced passes never see.
	var ref sample
	for i := 0; i < 2; i++ {
		runtime.GC()
		var err error
		if ref, err = w.pass(0, t, nil); err != nil {
			return nil, err
		}
	}
	var refs map[string]float64
	if r, ok := w.(refInfo); ok {
		refs = r.reference()
	}
	tr := newTracer()
	perPass := map[string][]float64{}
	w = firstPass{w}
	var walls []float64
	err := runPasses(w, t, tr, budget, func(_ int, s sample) {
		walls = append(walls, s.wall.Seconds())
		for k, v := range layerMetrics(tr, refs) {
			perPass[k] = append(perPass[k], v)
		}
		tr.nextPass()
	})
	if err != nil {
		return nil, err
	}
	metrics := map[string]metric{}
	for _, m := range perLayer {
		metrics[m.name] = metric{median(perPass[m.name]), m.unit}
	}
	metrics["trace.overhead_s"] = metric{median(walls) - ref.wall.Seconds(), "s"}
	if err := tr.write(filepath.Join(traceDir, name+".trace.json")); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	if len(tr.unsplit) > 0 {
		var kinds []string
		for k, n := range tr.unsplit {
			kinds = append(kinds, fmt.Sprintf("%s (%d)", k, n))
		}
		sort.Strings(kinds)
		fmt.Fprintf(os.Stderr, "perfbench: %s: ops without a per-phase split: %s\n", name, strings.Join(kinds, ", "))
	}
	return metrics, nil
}

// firstPass repeats a workload's first pass, so every traced pass runs the
// inputs of the untraced reference passes.
type firstPass struct{ bench }

func (f firstPass) pass(_ int, t *tally, tr *tracer) (sample, error) { return f.bench.pass(0, t, tr) }

func (f firstPass) passes() int { return 1 }

// report prints the run's host record, failed ops and metrics to stderr.
func report(name string, seed int64, host hostInfo, t *tally, metrics map[string]metric) {
	h, _ := json.Marshal(host)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d host=%s\n", name, seed, h)
	for _, n := range t.failedNames() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED %s: %s\n", name, n, t.first[n])
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %-28s %14.6g %s\n", name, k, metrics[k].Value, metrics[k].Unit)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: ops attempted %d, failed %d\n", name, t.attempted(), len(t.failedNames()))
}
