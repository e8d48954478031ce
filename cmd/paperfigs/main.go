// Command paperfigs regenerates the paper's figures in their original
// presentation:
//
//	paperfigs -fig 1    the Figure 1 ordering matrix, verified by litmus tests
//	paperfigs -fig 2a   Example 1 cycle counts (§3.3)
//	paperfigs -fig 2b   Example 2 cycle counts (§3.3 / §4.1)
//	paperfigs -fig 5    the §4.3 execution trace with buffer snapshots
//	paperfigs -fig all  every paper figure
//
// The E16 many-core extension table, which the paper has no figure for,
// is `sweep -exp scale`.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"mcmsim/internal/core"
	"mcmsim/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1, 2a, 2b, 5, or all")
	flag.Parse()

	var err error
	switch *fig {
	case "1":
		err = figure1()
	case "2a":
		err = figure2("example1")
	case "2b":
		err = figure2("example2")
	case "2":
		if err = figure2("example1"); err == nil {
			err = figure2("example2")
		}
	case "5":
		err = figure5()
	case "all":
		for _, f := range []func() error{figure1, func() error { return figure2("example1") },
			func() error { return figure2("example2") }, figure5} {
			if err = f(); err != nil {
				break
			}
			fmt.Println()
		}
	default:
		err = fmt.Errorf("unknown figure %q", *fig)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
}

func figure1() error {
	fmt.Println("Figure 1 — ordering restrictions per consistency model")
	fmt.Println("(litmus outcomes: 'relaxed' = the SC-forbidden reordering was observed)")
	cells, err := experiments.Figure1Matrix()
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "litmus\tmodel\ttechniques\trelaxed observed\tmodel permits\tverdict")
	for _, c := range cells {
		verdict := "ok"
		if c.Relaxed && !c.Allowed {
			verdict = "VIOLATION"
		}
		fmt.Fprintf(w, "%s\t%v\t%v\t%v\t%v\t%s\n",
			c.Litmus, c.Model, c.Tech, c.Relaxed, c.Allowed, verdict)
	}
	return w.Flush()
}

func figure2(example string) error {
	fmt.Printf("Figure 2 — %s cycle counts (paper §3.3/§4.1; PC/WC/RCsc rows are extension data)\n", example)
	results, err := experiments.Figure2GridAll()
	if err != nil {
		return err
	}
	paper := experiments.PaperFigure2()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "model\ttechniques\tmeasured\tpaper\tmatch")
	for _, r := range results {
		if r.Example != example {
			continue
		}
		if want, ok := paper[r.Key()]; ok {
			match := "YES"
			if r.Cycles != want {
				match = "no"
			}
			fmt.Fprintf(w, "%v\t%v\t%d\t%d\t%s\n", r.Model, r.Tech, r.Cycles, want, match)
		} else {
			fmt.Fprintf(w, "%v\t%v\t%d\t-\t(extension)\n", r.Model, r.Tech, r.Cycles)
		}
	}
	return w.Flush()
}

func figure5() error {
	fmt.Println("Figure 5 — execution trace of the §4.3 walkthrough")
	fmt.Printf("(SC, speculative loads + store prefetching; model %v)\n\n", core.SC)
	res, err := experiments.RunFigure5()
	if err != nil {
		return err
	}
	fmt.Print(res.Trace.String())
	fmt.Printf("total: %d cycles\n", res.Cycles)
	return nil
}
