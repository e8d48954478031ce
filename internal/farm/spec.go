package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"mcmsim/internal/coherence"
	"mcmsim/internal/conformance"
	"mcmsim/internal/experiments"
	"mcmsim/internal/parsim"
	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
)

// JobSpec is the serializable description of a workload: enough for any
// fleet member to reproduce the coordinator's job list, closure-free. It
// is also the one parsed form of the sweep and conform command lines: each
// front end parses its flags into a JobSpec and runs it on the in-process
// pool or on a farm (Fleet.Run). A worker re-enumerates the spec and
// cross-checks the Fingerprint before taking any lease — so the indices
// the coordinator hands out are guaranteed to name the same simulations
// everywhere. Every field reaches the jobs through the spec itself; no
// fleet member holds a setting outside it.
type JobSpec struct {
	// Kind selects the enumerator: "sweep" (the evaluation suite) or
	// "conform" (a conformance fuzz batch). RegisterKind adds more.
	Kind string

	// Seed is the sweep's workload seed, or the first generator seed of a
	// conformance batch (programs use Seed..Seed+N-1).
	Seed int64
	// Procs is the workload experiments' processor count, or each
	// generated program's (0 = random 2-3).
	Procs int
	// Topo is the interconnect: of the E16 scale sweep ("" = mesh), or of
	// every conformance cell ("" = uniform).
	Topo string
	// Protocol changes results. For a sweep it is the base coherence
	// protocol of every experiment without a protocol axis of its own
	// ("" or "msi", or "mesi"); for a conformance batch it is the grid's
	// protocol axis ("" or "both", "msi", or "mesi").
	Protocol string
	// Par shards each executor-driven simulation (every conformance cell)
	// across up to Par goroutines. Results are identical for every value.
	Par int

	// Sweep fields.
	Exps      []string // sweep names in suite order; nil = the whole suite
	ScaleCPUs []int    // E16 machine sizes; nil = experiments.ScaleCPUCounts
	Dense     bool     // step every cycle of the measured phases; results are identical

	// Conform fields.
	N       int  // programs in the batch
	Ops     int  // max operations per processor (0 = default)
	Quick   bool // paper timing only
	PadCPUs int  // pad every cell's machine to this many processors
}

// Enumerator reproduces a job list from a spec, or rejects the spec.
type Enumerator func(JobSpec) ([]runner.Job, error)

var kinds = map[string]Enumerator{}

// RegisterKind installs an enumerator for a spec kind. The "sweep" and
// "conform" kinds are built in; experiments outside this module can add
// their own, provided every fleet member's binary registers it.
func RegisterKind(name string, e Enumerator) {
	if _, dup := kinds[name]; dup {
		panic(fmt.Sprintf("farm: duplicate spec kind %q", name))
	}
	kinds[name] = e
}

func init() {
	RegisterKind("sweep", enumerateSweep)
	RegisterKind("conform", enumerateConform)
}

// Enumerate reproduces the spec's job list. Deterministic: the same spec
// yields the same jobs in the same order on every fleet member (the
// Fingerprint handshake enforces it). A spec no enumerator can build — an
// unknown kind, protocol or experiment, a scale machine size below 1, a
// topology sim.ValidateTopo rejects — is an error, never a panic, whether
// it comes from a command line or over the wire.
func Enumerate(spec JobSpec) ([]runner.Job, error) {
	e, ok := kinds[spec.Kind]
	if !ok {
		return nil, fmt.Errorf("farm: unknown spec kind %q", spec.Kind)
	}
	return e(spec)
}

// drive is the spec's executor drive for Measure jobs: the shard engine on
// Par workers, on the dense loop when Dense is set. Warmups simulated
// inside Configure or WarmupSpec.Build keep the sequential loop.
func (spec JobSpec) drive() func(*sim.System) (uint64, error) {
	return func(s *sim.System) (uint64, error) {
		s.Cfg.DenseLoop = s.Cfg.DenseLoop || spec.Dense
		return parsim.Drive(s, spec.Par)
	}
}

// sweepPlan validates a "sweep" spec and resolves its experiment
// selection and suite parameters.
func sweepPlan(spec JobSpec) ([]experiments.Sweep, experiments.Params, error) {
	params := experiments.Params{
		Procs:     spec.Procs,
		Seed:      spec.Seed,
		ScaleCPUs: spec.ScaleCPUs,
		ScaleTopo: spec.Topo,
	}
	switch spec.Protocol {
	case "", "msi":
	case "mesi":
		params.Protocol = coherence.ProtoMESI
	default:
		return nil, params, fmt.Errorf("unknown sweep protocol %q (want msi or mesi)", spec.Protocol)
	}
	cpus, topo := spec.ScaleCPUs, spec.Topo
	if len(cpus) == 0 {
		cpus = experiments.ScaleCPUCounts
	}
	if topo == "" {
		topo = "mesh"
	}
	for _, n := range cpus {
		if n < 1 {
			return nil, params, fmt.Errorf("bad scale machine size %d (want a positive CPU count)", n)
		}
		if err := sim.ValidateTopo(topo, n); err != nil {
			return nil, params, err
		}
	}
	sweeps := experiments.Suite()
	if len(spec.Exps) > 0 {
		sweeps = sweeps[:0:0]
		for _, name := range spec.Exps {
			s, ok := experiments.SweepByName(name)
			if !ok {
				return nil, params, fmt.Errorf("unknown experiment %q (want one of %s, or all)",
					name, strings.Join(experiments.SuiteNames(), ", "))
			}
			sweeps = append(sweeps, s)
		}
	}
	return sweeps, params, nil
}

func enumerateSweep(spec JobSpec) ([]runner.Job, error) {
	sweeps, params, err := sweepPlan(spec)
	if err != nil {
		return nil, err
	}
	var jobs []runner.Job
	for _, s := range sweeps {
		jobs = append(jobs, s.Jobs(params)...)
	}
	return jobs, nil
}

// SweepTables partitions a "sweep" spec's result rows (in enumeration
// order) back into per-sweep tables, so every executor's report renders
// to the same bytes.
func SweepTables(spec JobSpec, rows []runner.Row) ([]runner.Table, error) {
	if spec.Kind != "sweep" {
		return nil, fmt.Errorf("farm: SweepTables on a %q spec", spec.Kind)
	}
	sweeps, params, err := sweepPlan(spec)
	if err != nil {
		return nil, err
	}
	tables := make([]runner.Table, len(sweeps))
	off := 0
	for i, s := range sweeps {
		n := len(s.Jobs(params))
		if off+n > len(rows) {
			return nil, fmt.Errorf("farm: %d rows cannot fill the spec's enumeration", len(rows))
		}
		tables[i] = runner.Table{Name: s.Name, Rows: rows[off : off+n]}
		off += n
	}
	if off != len(rows) {
		return nil, fmt.Errorf("farm: %d rows left over after partitioning", len(rows)-off)
	}
	return tables, nil
}

// ConformOptions validates a "conform" spec and translates it into the
// checker's options.
func ConformOptions(spec JobSpec) (conformance.Params, conformance.CheckOptions, error) {
	var protocols []coherence.Protocol
	switch spec.Protocol {
	case "", "both":
	case "msi":
		protocols = []coherence.Protocol{coherence.ProtoInvalidate}
	case "mesi":
		protocols = []coherence.Protocol{coherence.ProtoMESI}
	default:
		return conformance.Params{}, conformance.CheckOptions{},
			fmt.Errorf("unknown conformance protocol axis %q (want both, msi, or mesi)", spec.Protocol)
	}
	// The smallest generated program has 2 processors.
	if err := sim.ValidateTopo(spec.Topo, max(spec.PadCPUs, 2)); err != nil {
		return conformance.Params{}, conformance.CheckOptions{}, err
	}
	params := conformance.Params{Procs: spec.Procs, ProcOps: spec.Ops}
	opts := conformance.CheckOptions{
		Quick: spec.Quick, CPUs: spec.PadCPUs, Topo: spec.Topo, Protocols: protocols, Par: spec.Par,
	}
	return params, opts, nil
}

func enumerateConform(spec JobSpec) ([]runner.Job, error) {
	params, opts, err := ConformOptions(spec)
	if err != nil {
		return nil, err
	}
	return conformance.BatchJobs(spec.Seed, spec.N, params, opts), nil
}

// Fingerprint hashes a spec and its enumeration. Two fleet members agree
// on a fingerprint only if they parsed the same spec into the same job
// list — the property that makes leasing bare indices sound. Job names
// stand in for the jobs themselves (closures have no canonical form); the
// enumerators derive every closure from the spec, so divergent closures
// with identical names would mean divergent binaries, which the build-hash
// handshake already rejects for stamped fleets.
func Fingerprint(spec JobSpec, jobs []runner.Job) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\x00%d\x00", spec, len(jobs))
	for _, j := range jobs {
		fmt.Fprintf(h, "%s\x00", j.Name)
	}
	return hex.EncodeToString(h.Sum(nil))
}
