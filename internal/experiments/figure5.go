package experiments

import (
	"fmt"

	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/sim"
	"mcmsim/internal/tracebuf"
	"mcmsim/internal/workload"
)

// Figure5Watch labels the addresses the §4.3 walkthrough tracks.
func Figure5Watch() map[string]uint64 {
	return map[string]uint64{
		"A":    workload.AddrA,
		"B":    workload.AddrB,
		"C":    workload.AddrC,
		"D":    workload.AddrD,
		"E[D]": workload.AddrEofD,
	}
}

// Figure5Result carries the recorded trace plus run metadata.
type Figure5Result struct {
	Trace  *tracebuf.Tracer
	Cycles uint64
}

// RunFigure5 reproduces the §4.3 walkthrough: the Figure 5 code segment
// (read A; write B; write C; read D; read E[D]) runs under sequential
// consistency with speculative loads and store prefetching; location D is
// warm in the cache; an external write invalidates D after D's speculated
// value has been consumed, exercising the detection and correction
// mechanism.
//
// Two deliberate substitutions versus the paper's hand-drawn timeline,
// documented in EXPERIMENTS.md: (1) location C starts dirty in another
// cache so the exclusive prefetch of C is still outstanding when D is
// reissued, giving the reissued load its "st C" store tag as in event 6;
// (2) with a single cache port the value for A arrives before B's
// ownership, and C's recall completes before D's reissued value returns, so
// the paper's events 2/3 and 7/8 appear swapped. Buffer contents at each
// milestone match the paper's table.
func RunFigure5() (Figure5Result, error) { return runFigure5((*sim.System).Run) }

// runFigure5 is RunFigure5 with both phases, warmup and traced run,
// advanced by drive — the differential tests' dense and sharded arms.
func runFigure5(drive func(*sim.System) (uint64, error)) (Figure5Result, error) {
	cfg := sim.PaperConfig()
	cfg.Procs = 2
	cfg.Model = core.SC
	cfg.Tech = core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}

	// Warm-up phase: processor 0 caches D (the assumed hit); processor 1
	// dirties C so the exclusive prefetch must recall it.
	w1 := isa.NewBuilder()
	w1.Li(isa.R1, 7)
	w1.StoreAbs(isa.R1, workload.AddrC)
	w1.Halt()
	s := sim.New(cfg, []*isa.Program{workload.Figure5Warmup(), w1.Build()})
	s.Preload(map[uint64]int64{workload.AddrD: workload.DValue})
	if _, err := drive(s); err != nil {
		return Figure5Result{}, fmt.Errorf("figure5 warmup: %w", err)
	}

	s.LoadPrograms([]*isa.Program{workload.Figure5(), workload.Idle()})
	tr := tracebuf.New(s, 0, Figure5Watch())

	// The external invalidation for D: the agent's write is timed so the
	// invalidation reaches processor 0 after write B completes (event 4)
	// and while store C is still pending, as in the paper's event 5.
	base := s.Cycle
	s.ScheduleWrites([]sim.ScheduledWrite{{Cycle: base + 60, Addr: workload.AddrD, Value: workload.DValue}})

	cycles, err := drive(s)
	if err != nil {
		return Figure5Result{}, err
	}
	return Figure5Result{Trace: tr, Cycles: cycles}, nil
}
