// Package experiments contains the runners that regenerate every table and
// figure of the paper (see DESIGN.md's experiment index). Each experiment
// is a pure function from configuration to results so the cmd/ tools, the
// benchmarks and the tests share one implementation.
package experiments

import (
	"fmt"

	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/sim"
	"mcmsim/internal/workload"
)

// TechConv, TechPf, TechSpec, TechBoth are the technique grid used across
// experiments.
var (
	TechConv = core.Technique{}
	TechPf   = core.Technique{Prefetch: true}
	TechSpec = core.Technique{SpecLoad: true, ReissueOpt: true}
	TechBoth = core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}
)

// Figure2Result is one cell of the Figure 2 cycle-count analysis.
type Figure2Result struct {
	Example string
	Model   core.Model
	Tech    core.Technique
	Cycles  uint64
}

// RunExample1 measures the paper's Example 1 (lock; write A; write B;
// unlock) under the given model and techniques, returning the cycle count
// from program start to the completion of the last access.
func RunExample1(model core.Model, tech core.Technique) (uint64, error) {
	cfg := sim.PaperConfig()
	cfg.Model = model
	cfg.Tech = tech
	return sim.RunProgram(cfg, []*isa.Program{workload.Example1()})
}

// RunExample2 measures Example 2 (lock; read C; read D; read E[D]; unlock).
// Location D is warmed into the cache first, and memory is preloaded so
// D's value indexes E, exactly as the example assumes.
func RunExample2(model core.Model, tech core.Technique) (uint64, error) {
	cfg := sim.PaperConfig()
	cfg.Model = model
	cfg.Tech = tech
	s := sim.New(cfg, []*isa.Program{workload.Example2Warmup()})
	s.Preload(map[uint64]int64{workload.AddrD: workload.DValue})
	if _, err := s.Run(); err != nil {
		return 0, fmt.Errorf("warmup: %w", err)
	}
	s.LoadPrograms([]*isa.Program{workload.Example2()})
	return s.Run()
}

// Figure2Grid runs both examples across the {SC, RC} x {conv, pf, spec}
// grid of the paper's analysis. Speculative loads are combined with store
// prefetching, as §4 prescribes.
func Figure2Grid() ([]Figure2Result, error) {
	return figure2Grid([]core.Model{core.SC, core.RC})
}

// Figure2GridAll extends the paper's SC/RC analysis to every implemented
// model, including PC, WC and RCsc (extension data: the paper presents the
// techniques "only in the context of SC and RC since they represent the two
// extremes of the spectrum"; these rows fill in the middle).
func Figure2GridAll() ([]Figure2Result, error) {
	return figure2Grid(core.AllModels)
}

// figure2Grid runs both examples under each model and each of conv, pf
// and pf+spec, in that order.
func figure2Grid(models []core.Model) ([]Figure2Result, error) {
	var out []Figure2Result
	for _, m := range models {
		for _, t := range []core.Technique{TechConv, TechPf, TechBoth} {
			c1, err := RunExample1(m, t)
			if err != nil {
				return nil, fmt.Errorf("example1 %v/%v: %w", m, t, err)
			}
			out = append(out, Figure2Result{"example1", m, t, c1})
			c2, err := RunExample2(m, t)
			if err != nil {
				return nil, fmt.Errorf("example2 %v/%v: %w", m, t, err)
			}
			out = append(out, Figure2Result{"example2", m, t, c2})
		}
	}
	return out, nil
}

// PaperFigure2 returns the cycle counts the paper reports for the grid, for
// verification: (example, model, technique-name) -> cycles.
func PaperFigure2() map[string]uint64 {
	return map[string]uint64{
		"example1/SC/conv":    301,
		"example1/RC/conv":    202,
		"example1/SC/pf":      103,
		"example1/RC/pf":      103,
		"example1/SC/pf+spec": 103,
		"example1/RC/pf+spec": 103,
		"example2/SC/conv":    302,
		"example2/RC/conv":    203,
		"example2/SC/pf":      203,
		"example2/RC/pf":      202,
		"example2/SC/pf+spec": 104,
		"example2/RC/pf+spec": 104,
	}
}

// Key renders the lookup key of a result in PaperFigure2 format.
func (r Figure2Result) Key() string {
	return fmt.Sprintf("%s/%v/%v", r.Example, r.Model, r.Tech)
}
