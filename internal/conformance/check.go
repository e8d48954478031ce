package conformance

import (
	"bytes"
	"encoding/base64"
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"mcmsim/internal/coherence"
	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
)

// The driver: run one generated program through the simulator across the
// model x technique x timing x protocol grid and check each cell against
// the exact oracle.
//
// Invariants checked per cell (model m, technique t, timing g, protocol c):
//
//  1. Containment: the observed outcome is in oracle(m), the exact
//     operational outcome set (exact.go). For m == SC this is the paper's
//     §1 baseline claim; for every m it implies techniques never add
//     outcomes the conventional model forbids (§4.2, §5.2), because
//     oracle(m) is computed from the conventional delay arcs alone. The
//     protocol axis must be invisible here: MSI and MESI only change when
//     a line is writable locally, never which values a read may bind.
//  2. Detector certificate: if the §6 detector reported zero possible
//     violations, the outcome is sequentially consistent — it is in
//     oracle(SC). The converse is deliberately NOT checked: the detector
//     is conservative (cache-line granular, speculative-buffer matches),
//     so it may fire on executions that happen to be SC.
//  3. Fast-forward transparency: for a sample of cells the same
//     configuration is re-run with DenseLoop set; halt cycle and outcome
//     must match exactly.
//
// Before any cell runs, the two reference models are cross-checked on the
// program: exact(m) ⊆ legacy(m) for every model and exact(SC) ==
// legacy(SC). The legacy oracle's deliberate over-approximations make
// these relations theorems (see exact.go), so any breach is a bug in one
// of the oracles and is reported as an "oracle-diff" violation.
//
// AdveHill and NST are deliberately outside the default grid: the former
// is a §6 comparator machine whose early-store-commit window is the very
// behaviour under study, the latter bypasses caching entirely; both are
// covered by their own tests.

// TechCell names one technique combination of the grid.
type TechCell struct {
	Name string
	Tech core.Technique
}

// GridTechs is the technique axis: conventional, prefetch alone,
// speculative loads (with the §4.2 reissue optimization), both combined
// (the paper's headline configuration), and speculation with the §4.1
// revalidate policy instead of reissue.
func GridTechs() []TechCell {
	return []TechCell{
		{"conv", core.Technique{}},
		{"pf", core.Technique{Prefetch: true}},
		{"spec", core.Technique{SpecLoad: true, ReissueOpt: true}},
		{"pf+spec", core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}},
		{"spec+reval", core.Technique{SpecLoad: true, Revalidate: true}},
	}
}

// TimingCell names one timing perturbation of the grid.
type TimingCell struct {
	Name string
	Cfg  func() sim.Config
}

// GridTimings is the timing axis: the paper's canonical 100-cycle miss,
// a near-hit machine (latency 24) that compresses every overlap window,
// and a congested distributed machine (latency 220, two interleaved home
// modules, one directory message per cycle) that stretches and reorders
// them.
func GridTimings() []TimingCell {
	return []TimingCell{
		{"paper", sim.PaperConfig},
		{"fast", func() sim.Config { return sim.PaperConfig().WithMissLatency(24) }},
		{"congested", func() sim.Config {
			c := sim.PaperConfig().WithMissLatency(220)
			c.MemModules = 2
			c.DirBandwidth = 1
			return c
		}},
	}
}

// GridProtocols is the coherence-protocol axis: the seed's MSI
// invalidation protocol and the MESI extension (exclusive-clean state,
// silent eviction, exclusive grant on a read to an uncached line). The
// update protocol is outside the default grid — read-exclusive prefetch
// and cached atomics are structurally unavailable under it, so it has its
// own experiments.
func GridProtocols() []coherence.Protocol {
	return []coherence.Protocol{coherence.ProtoInvalidate, coherence.ProtoMESI}
}

// protoName renders the protocol's grid-cell segment.
func protoName(p coherence.Protocol) string {
	switch p {
	case coherence.ProtoInvalidate:
		return "msi"
	case coherence.ProtoMESI:
		return "mesi"
	default:
		return p.String()
	}
}

// Violation is one failed invariant: the cell, what was observed, and why
// it is wrong. Program carries the abstract program for minimization.
type Violation struct {
	Program Program
	Cell    string // "model/tech/timing/proto"
	Kind    string // "containment" | "detector" | "dense" | "oracle-diff" | "error"
	Detail  string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", v.Cell, v.Kind, v.Detail)
}

// CheckOptions trims the grid and sizes the machine. The zero value is the
// full grid on the program's own machine.
type CheckOptions struct {
	// Quick restricts the timing axis to the paper configuration and the
	// dense twins to SC/conv — the per-exec budget of the fuzz target.
	Quick bool
	// CPUs runs every cell on a machine with at least this many
	// processors: the litmus program occupies the first CPUs and the rest
	// run an immediate Halt. The padding CPUs never touch shared data, so
	// the oracle's exhaustive interleaving set stays that of the 2-3
	// processor program while the simulation exercises a full-size
	// machine. 0 = the program's processor count.
	CPUs int
	// Topo selects the interconnect for every cell: "" or "uniform" keeps
	// the timing axis's uniform-latency network; "mesh" / "mesh:WxH" runs
	// the grid on a mesh machine with one home module per tile and the
	// limited-pointer directory above 8 CPUs (the scale rule of
	// sim.Config.ResolveScaled, which E16 shares).
	Topo string
	// Protocols restricts the protocol axis; nil runs the full
	// GridProtocols set.
	Protocols []coherence.Protocol
	// Drive, if non-nil, replaces s.Run() for every fast-forward cell — the
	// seam the shard engine's parity test drives cells through. Dense
	// twins always run the sequential dense loop, so they stay the
	// reference either way. Verdicts must not depend on it.
	Drive func(*sim.System) (uint64, error)
}

// idleProgram is the padding CPUs' program: halt immediately. Programs are
// immutable once built, so one instance serves every cell.
var idleProgram = isa.NewBuilder().Halt().Build()

// machineFor applies the options' machine shape to a cell config and
// resolves it.
func machineFor(cfg sim.Config, progs []*isa.Program, opts CheckOptions) (sim.Config, []*isa.Program, error) {
	cfg.Procs = len(progs)
	if opts.CPUs > len(progs) {
		padded := make([]*isa.Program, opts.CPUs)
		copy(padded, progs)
		for i := len(progs); i < opts.CPUs; i++ {
			padded[i] = idleProgram
		}
		progs = padded
		cfg.Procs = opts.CPUs
	}
	cfg.Topo = opts.Topo
	cfg, err := cfg.ResolveScaled()
	return cfg, progs, err
}

// cellResult is one simulator run's observables.
type cellResult struct {
	outcome    string
	cycles     uint64
	detections uint64
}

// runCell builds and runs one configuration and extracts the outcome.
func runCell(p Program, progs []*isa.Program, m core.Model, tech core.Technique, proto coherence.Protocol, cfg sim.Config, dense bool, opts CheckOptions) (cellResult, error) {
	cfg, progs, err := machineFor(cfg, progs, opts)
	if err != nil {
		return cellResult{}, err
	}
	cfg.Model = m
	cfg.Tech = tech
	cfg.Protocol = proto
	cfg.Tech.DetectSC = true // the §6 monitor is passive; always watch
	cfg.DenseLoop = dense
	s := sim.New(cfg, progs)
	drive := (*sim.System).Run
	if opts.Drive != nil && !dense {
		drive = opts.Drive
	}
	cycles, err := drive(s)
	if err != nil {
		return cellResult{}, err
	}
	binds := make([][]int64, len(p.Ops))
	for i := range p.Ops {
		n := p.NumReads(i)
		binds[i] = make([]int64, n)
		for k := 0; k < n; k++ {
			binds[i][k] = s.ReadCoherent(ObsSlot(i, k))
		}
	}
	mem := make([]int64, p.NAddr)
	for a := range mem {
		mem[a] = s.ReadCoherent(SharedAddr(a))
	}
	var det uint64
	for _, u := range s.LSUs {
		det += u.SCViolations()
	}
	return cellResult{outcome: outcomeString(binds, mem), cycles: cycles, detections: det}, nil
}

// Stats aggregates what a check actually exercised — in particular how
// many cells produced an outcome outside the SC set. If Relaxed stays
// zero across a large batch the containment checks for the weak models
// are vacuous, so the driver surfaces it.
type Stats struct {
	Cells      int // fast-forward grid cells run
	Relaxed    int // cells whose outcome is outside oracle(SC)
	Detections int // cells where the §6 detector reported >= 1 possible violation
}

func (s *Stats) add(o Stats) {
	s.Cells += o.Cells
	s.Relaxed += o.Relaxed
	s.Detections += o.Detections
}

// CheckProgram runs the whole grid for one program and returns every
// violation found (empty = conformant). Oracle extraction failure is
// reported as a single "error" violation rather than an invariant breach.
func CheckProgram(p Program, opts CheckOptions) (Stats, []Violation) {
	var stats Stats
	progs := p.Build()
	shared := p.SharedAddrs()

	oracle := make(map[core.Model]OutcomeSet, len(core.AllModels))
	var viols []Violation
	for _, m := range core.AllModels {
		set, err := ModelOutcomes(progs, shared, m)
		if err != nil {
			return stats, []Violation{{Program: p, Cell: "oracle/" + m.String(), Kind: "error", Detail: err.Error()}}
		}
		oracle[m] = set
		// Built-in oracle differential: the legacy superset model must
		// contain the exact set for every model and coincide with it
		// under SC.
		legacy, err := LegacyModelOutcomes(progs, shared, m)
		if err != nil {
			return stats, []Violation{{Program: p, Cell: "oracle/" + m.String(), Kind: "error", Detail: err.Error()}}
		}
		if !set.Subset(legacy) {
			viols = append(viols, Violation{
				Program: p, Cell: "oracle/" + m.String(), Kind: "oracle-diff",
				Detail: fmt.Sprintf("exact set not contained in legacy superset; exact: %v legacy: %v",
					set.Sorted(), legacy.Sorted()),
			})
		} else if m == core.SC && !legacy.Subset(set) {
			viols = append(viols, Violation{
				Program: p, Cell: "oracle/" + m.String(), Kind: "oracle-diff",
				Detail: fmt.Sprintf("legacy SC set differs from exact SC set; exact: %v legacy: %v",
					set.Sorted(), legacy.Sorted()),
			})
		}
	}
	scSet := oracle[core.SC]

	timings := GridTimings()
	if opts.Quick {
		timings = timings[:1]
	}
	protocols := opts.Protocols
	if len(protocols) == 0 {
		protocols = GridProtocols()
	}

	for _, m := range core.AllModels {
		for _, tc := range GridTechs() {
			for _, tg := range timings {
				for _, proto := range protocols {
					cell := fmt.Sprintf("%s/%s/%s/%s", m, tc.Name, tg.Name, protoName(proto))
					res, err := runCell(p, progs, m, tc.Tech, proto, tg.Cfg(), false, opts)
					if err != nil {
						viols = append(viols, Violation{Program: p, Cell: cell, Kind: "error", Detail: err.Error()})
						continue
					}
					stats.Cells++
					if !scSet.Has(res.outcome) {
						stats.Relaxed++
					}
					if res.detections > 0 {
						stats.Detections++
					}
					if !oracle[m].Has(res.outcome) {
						viols = append(viols, Violation{
							Program: p, Cell: cell, Kind: "containment",
							Detail: fmt.Sprintf("outcome %q not allowed by %s; allowed: %v",
								res.outcome, m, oracle[m].Sorted()),
						})
					}
					if res.detections == 0 && !scSet.Has(res.outcome) {
						viols = append(viols, Violation{
							Program: p, Cell: cell, Kind: "detector",
							Detail: fmt.Sprintf("detector silent but outcome %q is not SC; SC set: %v",
								res.outcome, scSet.Sorted()),
						})
					}
					// Fast-forward transparency: dense twin of the paper-timing
					// cells for the boundary techniques (conv and pf+spec).
					if tg.Name == "paper" && (tc.Name == "conv" || tc.Name == "pf+spec") {
						if opts.Quick && !(m == core.SC && tc.Name == "conv") {
							continue
						}
						dres, derr := runCell(p, progs, m, tc.Tech, proto, tg.Cfg(), true, opts)
						if derr != nil {
							viols = append(viols, Violation{Program: p, Cell: cell + "/dense", Kind: "error", Detail: derr.Error()})
							continue
						}
						if dres.outcome != res.outcome || dres.cycles != res.cycles {
							viols = append(viols, Violation{
								Program: p, Cell: cell, Kind: "dense",
								Detail: fmt.Sprintf("fast-forward (%q, %d cycles) != dense (%q, %d cycles)",
									res.outcome, res.cycles, dres.outcome, dres.cycles),
							})
						}
					}
				}
			}
		}
	}
	return stats, viols
}

// Report is the aggregate of a conformance batch.
type Report struct {
	Programs   int
	Stats      Stats
	Violations []Violation
}

// CellsPerProgram is the number of fast-forward grid cells CheckProgram
// visits with the full grid (dense twins excluded).
func CellsPerProgram() int {
	return len(core.AllModels) * len(GridTechs()) * len(GridTimings()) * len(GridProtocols())
}

// BatchJobs enumerates a conformance batch as independent runner jobs, one
// per generated program. Each job's row carries the program's grid
// statistics and any violations in encoded form, so a batch can execute on
// any executor that transports rows — the local pool or the sweep farm —
// and BatchReport reassembles the identical Report either way.
func BatchJobs(seed int64, n int, params Params, opts CheckOptions) []runner.Job {
	jobs := make([]runner.Job, n)
	for i := 0; i < n; i++ {
		p := Generate(seed+int64(i), params)
		jobs[i] = runner.Job{
			Name: fmt.Sprintf("conform/seed%d", p.Seed),
			Run: func(*sim.System) (runner.Row, error) {
				stats, viols := CheckProgram(p, opts)
				return encodeProgramRow(stats, viols)
			},
		}
	}
	return jobs
}

// encodeProgramRow flattens one program's check result into the runner's
// row currency: the statistics as extra metrics, the violations (rich
// structures, including the program itself for minimization) as a gob
// blob. Gob encodes these map-free structs deterministically, so the rows
// — like every other farm observable — are byte-stable.
func encodeProgramRow(stats Stats, viols []Violation) (runner.Row, error) {
	row := runner.Row{
		Extra: map[string]float64{
			"cells":      float64(stats.Cells),
			"relaxed":    float64(stats.Relaxed),
			"detections": float64(stats.Detections),
		},
	}
	if len(viols) > 0 {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(viols); err != nil {
			return runner.Row{}, fmt.Errorf("conformance: encode violations: %w", err)
		}
		row.Labels = map[string]string{"violations": base64.StdEncoding.EncodeToString(buf.Bytes())}
	}
	return row, nil
}

// decodeProgramRow inverts encodeProgramRow.
func decodeProgramRow(row runner.Row) (Stats, []Violation, error) {
	stats := Stats{
		Cells:      int(row.Extra["cells"]),
		Relaxed:    int(row.Extra["relaxed"]),
		Detections: int(row.Extra["detections"]),
	}
	blob, ok := row.Labels["violations"]
	if !ok {
		return stats, nil, nil
	}
	raw, err := base64.StdEncoding.DecodeString(blob)
	if err != nil {
		return stats, nil, fmt.Errorf("conformance: decode violations: %w", err)
	}
	var viols []Violation
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&viols); err != nil {
		return stats, nil, fmt.Errorf("conformance: decode violations: %w", err)
	}
	return stats, viols, nil
}

// BatchReport reassembles the results of a BatchJobs run (in job order, as
// every executor returns them) into the batch report. A failed job — a
// panic inside CheckProgram, wherever it ran — is itself a conformance
// failure, attributed to the program that provoked it.
func BatchReport(seed int64, n int, params Params, results []runner.Result) Report {
	rep := Report{Programs: n}
	for i, res := range results {
		if res.Err != nil {
			rep.Violations = append(rep.Violations, Violation{
				Program: Generate(seed+int64(i), params),
				Cell:    res.Name, Kind: "error", Detail: res.Err.Error(),
			})
			continue
		}
		stats, viols, err := decodeProgramRow(res.Row)
		if err != nil {
			rep.Violations = append(rep.Violations, Violation{
				Program: Generate(seed+int64(i), params),
				Cell:    res.Name, Kind: "error", Detail: err.Error(),
			})
			continue
		}
		rep.Stats.add(stats)
		rep.Violations = append(rep.Violations, viols...)
	}
	return rep
}

// CheckBatch generates programs for seeds seed..seed+n-1 and checks each
// across the grid, running programs in parallel on the runner's worker
// pool. Results are deterministic for any worker count: each program is an
// independent job and violations are collected in seed order.
func CheckBatch(seed int64, n int, params Params, workers int, opts CheckOptions, progress func(done, total int)) Report {
	jobs := BatchJobs(seed, n, params, opts)
	done := 0
	results := runner.Run(jobs, runner.Options{Workers: workers, OnProgress: func(pr runner.Progress) {
		done++
		if progress != nil {
			progress(done, n)
		}
	}})
	return BatchReport(seed, n, params, results)
}

// Summarize renders a batch report exactly as cmd/conform prints it: the
// one-line OK summary, or the violation list with a 1-minimal reproducer
// per failing program. A negative elapsed omits the wall-clock figure —
// the form the farm's byte-comparison gates use, wall time being the one
// nondeterministic field. Returns true when the report is clean.
func Summarize(w io.Writer, rep Report, seed int64, n int, opts CheckOptions, elapsed time.Duration) bool {
	if len(rep.Violations) == 0 {
		fmt.Fprintf(w, "conform: OK — %d programs, %d grid cells (%d relaxed outcomes, %d detector hits), seeds %d..%d",
			rep.Programs, rep.Stats.Cells, rep.Stats.Relaxed, rep.Stats.Detections,
			seed, seed+int64(n)-1)
		if elapsed >= 0 {
			fmt.Fprintf(w, ", %.1fs", elapsed.Seconds())
		}
		fmt.Fprintln(w)
		return true
	}
	fmt.Fprintf(w, "conform: %d violation(s) across %d programs\n\n", len(rep.Violations), rep.Programs)
	// Group violations by program (seed) and minimize each failing program
	// once; the grid is deterministic, so the reproducer is exact.
	minimized := make(map[int64]bool)
	for _, v := range rep.Violations {
		fmt.Fprintf(w, "%v\n", v)
		if minimized[v.Program.Seed] {
			continue
		}
		minimized[v.Program.Seed] = true
		min := MinimizeViolation(v.Program, opts)
		fmt.Fprintf(w, "minimized reproducer:\n%v", min)
		_, mviols := CheckProgram(min, opts)
		for _, mv := range mviols {
			fmt.Fprintf(w, "  still fails: %v\n", mv)
		}
		fmt.Fprintln(w)
	}
	return false
}
