package experiments

import (
	"fmt"

	"mcmsim/internal/coherence"
	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/sim"
	"mcmsim/internal/workload"
)

// Figure1Cell is one litmus-test outcome under one model/technique.
type Figure1Cell struct {
	Litmus     string
	Model      core.Model
	Tech       core.Technique
	Relaxed    bool // the SC-forbidden outcome occurred
	Allowed    bool // the model's delay arcs permit that outcome
	Cycles     uint64
	Detections uint64 // SC-violation detector hits (E10; zero unless DetectSC)
}

// RunLitmus executes one litmus test under the given model and techniques
// and reports whether the relaxed outcome occurred.
func RunLitmus(l workload.Litmus, model core.Model, tech core.Technique) (Figure1Cell, error) {
	return RunLitmusWithProtocol(l, model, tech, coherence.ProtoInvalidate)
}

// RunLitmusWithProtocol is RunLitmus under a chosen coherence protocol.
func RunLitmusWithProtocol(l workload.Litmus, model core.Model, tech core.Technique, proto coherence.Protocol) (Figure1Cell, error) {
	s, err := litmusSystem(l, model, tech, proto)
	if err != nil {
		return Figure1Cell{}, err
	}
	cycles, err := s.Run()
	if err != nil {
		return Figure1Cell{}, fmt.Errorf("%s: %w", l.Name, err)
	}
	return litmusCell(l, model, tech, s, cycles), nil
}

// litmusSystem assembles (and, where the litmus requires it, warms up) the
// machine for one litmus run. It is the Configure half of a litmus job.
func litmusSystem(l workload.Litmus, model core.Model, tech core.Technique, proto coherence.Protocol) (*sim.System, error) {
	progs := l.Programs()
	cfg := sim.PaperConfig()
	cfg.Procs = len(progs)
	cfg.Model = model
	cfg.Tech = tech
	cfg.Protocol = proto

	if l.Warmups == nil {
		return sim.New(cfg, progs), nil
	}
	warm := l.Warmups()
	ws := make([]*isa.Program, len(progs))
	for i := range ws {
		if i < len(warm) && warm[i] != nil {
			ws[i] = warm[i]
		} else {
			ws[i] = workload.Idle()
		}
	}
	s := sim.New(cfg, ws)
	if _, err := s.Run(); err != nil {
		return nil, fmt.Errorf("%s warmup: %w", l.Name, err)
	}
	s.LoadPrograms(progs)
	return s, nil
}

// litmusCell extracts the cell from a litmus machine that ran to its halt
// cycle, including the SC-violation detector count. It is the Measure half
// of a litmus job.
func litmusCell(l workload.Litmus, model core.Model, tech core.Technique, s *sim.System, cycles uint64) Figure1Cell {
	return Figure1Cell{
		Litmus:     l.Name,
		Model:      model,
		Tech:       tech,
		Relaxed:    l.Relaxed(s.ReadCoherent),
		Allowed:    l.AllowedUnder[model.String()],
		Cycles:     cycles,
		Detections: scViolations(s),
	}
}

// scViolations sums the SC-violation detector's hits across the machine.
func scViolations(s *sim.System) uint64 {
	var n uint64
	for _, u := range s.LSUs {
		n += u.SCViolations()
	}
	return n
}

// Figure1Matrix runs the full litmus battery across all four models,
// conventionally and with both techniques enabled. The conventional run
// both respects and (by construction of the tests' timing) exhibits each
// model's permitted relaxations; the technique runs must never introduce a
// relaxation the model forbids — that is the correctness claim of the
// paper's detection mechanism.
func Figure1Matrix() ([]Figure1Cell, error) {
	var out []Figure1Cell
	for _, l := range workload.AllLitmus() {
		for _, m := range core.AllModels {
			for _, t := range []core.Technique{TechConv, TechBoth} {
				cell, err := RunLitmus(l, m, t)
				if err != nil {
					return nil, err
				}
				out = append(out, cell)
			}
		}
	}
	return out, nil
}
