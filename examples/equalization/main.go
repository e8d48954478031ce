// Equalization: the paper's central claim (§5) on a full workload. A
// data-race-free mix of private computation and lock-protected sharing runs
// under all four consistency models and all technique combinations; the
// table shows the model gap collapsing once prefetching and speculative
// loads are enabled.
//
//	go run ./examples/equalization
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"mcmsim/internal/coherence"
	"mcmsim/internal/experiments"
	"mcmsim/internal/runner"
)

func main() {
	jobs := experiments.EqualizationJobs(3, 7, coherence.ProtoInvalidate)
	rows, err := runner.Rows(runner.Run(jobs, runner.Options{}))
	if err != nil {
		log.Fatal(err)
	}
	// Pivot into model x technique.
	cell := map[string]map[string]uint64{}
	var techs []string
	seen := map[string]bool{}
	for _, r := range rows {
		m, t := r.Labels["model"], r.Labels["tech"]
		if cell[m] == nil {
			cell[m] = map[string]uint64{}
		}
		cell[m][t] = r.Cycles
		if !seen[t] {
			seen[t] = true
			techs = append(techs, t)
		}
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "model")
	for _, t := range techs {
		fmt.Fprintf(w, "\t%s", t)
	}
	fmt.Fprintln(w)
	for _, m := range []string{"SC", "PC", "WC", "RCsc", "RC"} {
		fmt.Fprint(w, m)
		for _, t := range techs {
			fmt.Fprintf(w, "\t%d", cell[m][t])
		}
		fmt.Fprintln(w)
	}
	w.Flush()

	gap := func(t string) float64 { return float64(cell["SC"][t]) / float64(cell["RC"][t]) }
	fmt.Printf("\nSC/RC ratio: %.2f conventional -> %.2f with prefetch+speculation\n",
		gap("conv"), gap("pf+spec"))
	fmt.Println("\"...the performance of different consistency models is equalized, thus")
	fmt.Println("reducing the impact of the consistency model on performance.\" (§1)")
}
