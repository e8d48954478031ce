package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"mcmsim/internal/coherence"
	"mcmsim/internal/conformance"
	"mcmsim/internal/experiments"
	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
)

// JobSpec is the serializable description of a workload: enough for any
// fleet member to reproduce the coordinator's job list, closure-free. A
// worker applies the spec's process globals, re-enumerates the jobs, and
// cross-checks the Fingerprint before taking any lease — so the indices
// the coordinator hands out are guaranteed to name the same simulations
// everywhere.
type JobSpec struct {
	// Kind selects the enumerator: "sweep" (the evaluation suite) or
	// "conform" (a conformance fuzz batch). RegisterKind adds more.
	Kind string

	// Process globals, applied identically on every fleet member before
	// enumeration. These steer execution strategy (never results — the
	// differential gates hold them observation-transparent), but they
	// fingerprint anyway: a homogeneous fleet is cheaper than reasoning
	// about which knob could matter.
	Protocol string // base coherence protocol: "", "msi", "mesi"
	Par      int    // shard workers per simulation
	Dense    bool   // disable idle-cycle fast-forward

	// "sweep" fields (mirror cmd/sweep flags).
	Exps      []string // sweep names in suite order; nil = the whole suite
	Procs     int
	Seed      int64
	ScaleCPUs []int
	ScaleTopo string

	// "conform" fields (mirror cmd/conform flags).
	CSeed     int64
	N         int
	CProcs    int
	Ops       int
	Quick     bool
	PadCPUs   int
	Topo      string
	Protocols string // conformance protocol axis: "", "both", "msi", "mesi"
}

// Enumerator reproduces a job list from a spec.
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

// globalsMu serializes ApplyGlobals: every member of an in-process fleet
// (coordinator plus loopback workers, or a daemon's worker batch) applies
// the same spec, so after the first application the rest are compare-only
// no-ops — no global is ever rewritten while a sibling's simulation reads
// it. Heterogeneous specs in one process are not supported.
var globalsMu sync.Mutex

// ApplyGlobals installs the spec's process globals, exactly as the
// corresponding cmd/sweep and cmd/conform flags would. Idempotent and
// write-on-change, so fleet members sharing a process can each call it.
func ApplyGlobals(spec JobSpec) error {
	proto := coherence.ProtoInvalidate
	switch spec.Protocol {
	case "", "msi":
	case "mesi":
		proto = coherence.ProtoMESI
	default:
		return fmt.Errorf("farm: unknown protocol %q in spec", spec.Protocol)
	}
	par := spec.Par
	if par <= 0 {
		par = 1
	}
	globalsMu.Lock()
	defer globalsMu.Unlock()
	if sim.BaseProtocol != proto {
		sim.BaseProtocol = proto
	}
	if sim.ForceDense != spec.Dense {
		sim.ForceDense = spec.Dense
	}
	if sim.ParWorkers != par {
		sim.ParWorkers = par
	}
	return nil
}

// Enumerate reproduces the spec's job list. Deterministic: the same spec
// yields the same jobs in the same order on every fleet member (the
// Fingerprint handshake enforces it).
func Enumerate(spec JobSpec) ([]runner.Job, error) {
	e, ok := kinds[spec.Kind]
	if !ok {
		return nil, fmt.Errorf("farm: unknown spec kind %q", spec.Kind)
	}
	return e(spec)
}

// sweepsFor resolves a "sweep" spec's experiment selection.
func sweepsFor(spec JobSpec) ([]experiments.Sweep, error) {
	sweeps := experiments.Suite()
	if len(spec.Exps) > 0 {
		sweeps = sweeps[:0:0]
		for _, name := range spec.Exps {
			s, ok := experiments.SweepByName(name)
			if !ok {
				return nil, fmt.Errorf("farm: unknown experiment %q in spec", name)
			}
			sweeps = append(sweeps, s)
		}
	}
	return sweeps, nil
}

func sweepParams(spec JobSpec) experiments.Params {
	return experiments.Params{
		Procs:     spec.Procs,
		Seed:      spec.Seed,
		ScaleCPUs: spec.ScaleCPUs,
		ScaleTopo: spec.ScaleTopo,
	}
}

func enumerateSweep(spec JobSpec) ([]runner.Job, error) {
	sweeps, err := sweepsFor(spec)
	if err != nil {
		return nil, err
	}
	params := sweepParams(spec)
	var jobs []runner.Job
	for _, s := range sweeps {
		jobs = append(jobs, s.Jobs(params)...)
	}
	return jobs, nil
}

// SweepTables partitions a "sweep" spec's result rows (in enumeration
// order) back into per-sweep tables, exactly as cmd/sweep's local path
// slices its concatenated job list — so a farm report renders to the
// same bytes.
func SweepTables(spec JobSpec, rows []runner.Row) ([]runner.Table, error) {
	if spec.Kind != "sweep" {
		return nil, fmt.Errorf("farm: SweepTables on a %q spec", spec.Kind)
	}
	sweeps, err := sweepsFor(spec)
	if err != nil {
		return nil, err
	}
	params := sweepParams(spec)
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

// ConformOptions translates a "conform" spec into the checker's options.
func ConformOptions(spec JobSpec) (conformance.Params, conformance.CheckOptions, error) {
	var protocols []coherence.Protocol
	switch spec.Protocols {
	case "", "both":
	case "msi":
		protocols = []coherence.Protocol{coherence.ProtoInvalidate}
	case "mesi":
		protocols = []coherence.Protocol{coherence.ProtoMESI}
	default:
		return conformance.Params{}, conformance.CheckOptions{},
			fmt.Errorf("farm: unknown conformance protocol axis %q in spec", spec.Protocols)
	}
	params := conformance.Params{Procs: spec.CProcs, ProcOps: spec.Ops}
	opts := conformance.CheckOptions{Quick: spec.Quick, CPUs: spec.PadCPUs, Topo: spec.Topo, Protocols: protocols}
	return params, opts, nil
}

func enumerateConform(spec JobSpec) ([]runner.Job, error) {
	params, opts, err := ConformOptions(spec)
	if err != nil {
		return nil, err
	}
	return conformance.BatchJobs(spec.CSeed, spec.N, params, opts), nil
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
