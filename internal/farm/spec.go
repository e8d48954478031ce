package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"mcmsim/internal/coherence"
	"mcmsim/internal/conformance"
	"mcmsim/internal/experiments"
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
	// "conform" (a conformance fuzz batch).
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

	// Sweep fields.
	Exps      []string // sweep names in suite order; nil = the whole suite
	ScaleCPUs []int    // E16 machine sizes; nil = experiments.ScaleCPUCounts

	// Conform fields.
	N       int  // programs in the batch
	Ops     int  // max operations per processor (0 = default)
	Quick   bool // paper timing only
	PadCPUs int  // pad every cell's machine to this many processors
}

// Enumerate reproduces the spec's job list. Deterministic: the same spec
// yields the same jobs in the same order on every fleet member (the
// Fingerprint handshake enforces it). A spec no enumerator can build — an
// unknown kind, protocol or experiment, a scale machine size below 1, a
// topology sim.ValidateTopo rejects — is an error, never a panic, whether
// it comes from a command line or over the wire.
func Enumerate(spec JobSpec) ([]runner.Job, error) {
	switch spec.Kind {
	case "sweep":
		return enumerateSweep(spec)
	case "conform":
		return enumerateConform(spec)
	}
	return nil, fmt.Errorf("farm: unknown spec kind %q", spec.Kind)
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
		Quick: spec.Quick, CPUs: spec.PadCPUs, Topo: spec.Topo, Protocols: protocols,
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
