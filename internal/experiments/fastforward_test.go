package experiments

import (
	"bytes"
	"testing"

	"mcmsim/internal/runner"
	"mcmsim/internal/sim"
)

// renderSuite runs every sweep in the registry through runner.Run with the
// given options and renders the full report in the given format — exactly
// what `sweep -exp all -format F` produces. A WarmupCache in opts is shared
// by all the sweeps, as in cmd/sweep.
func renderSuite(t *testing.T, format string, opts runner.Options) []byte {
	t.Helper()
	return renderSuiteParams(t, DefaultParams(), format, opts)
}

// renderSuiteParams renders the full suite under the given parameters.
func renderSuiteParams(t *testing.T, p Params, format string, opts runner.Options) []byte {
	t.Helper()
	var tables []runner.Table
	for _, s := range Suite() {
		rows, err := runner.Rows(runner.Run(s.Jobs(p), opts))
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		tables = append(tables, runner.Table{Name: s.Name, Rows: rows})
	}
	var buf bytes.Buffer
	if err := runner.WriteReport(&buf, format, tables); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// denseDrive advances a machine on the sequential loop with the wake
// schedule disabled: the dense reference.
func denseDrive(s *sim.System) (uint64, error) {
	s.Cfg.DenseLoop = true
	return s.Run()
}

// TestFastForwardSuiteByteIdentical is the end-to-end differential gate
// for the idle-cycle fast-forward scheduler: the complete experiment suite
// (every E-series sweep, i.e. `sweep -exp all`) must render byte-identical
// reports in every output format whether the measured phases are stepped
// densely or fast-forwarded. This test deliberately goes through the same
// enumeration, execution and rendering layers as cmd/sweep, so a
// divergence anywhere — a skipped stall that a counter should have seen,
// a histogram observed at a shifted cycle — fails loudly with a report
// diff.
func TestFastForwardSuiteByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential run; skipped in -short mode")
	}
	t.Parallel()
	for _, format := range []string{runner.FormatTable, runner.FormatJSON, runner.FormatCSV} {
		dense := renderSuite(t, format, runner.Options{Drive: denseDrive})
		fast := renderSuite(t, format, runner.Options{})
		if !bytes.Equal(dense, fast) {
			t.Errorf("%s reports differ:\n--- dense ---\n%s--- fast-forward ---\n%s", format, dense, fast)
		}
	}
}

// TestFastForwardFigure5TraceIdentical pins the finest-grained observable:
// the §4.3 cycle-by-cycle execution trace. Fast-forward may skip only
// cycles in which nothing happens, so the traced walkthrough — every
// event annotated with its cycle number — must come out identical.
func TestFastForwardFigure5TraceIdentical(t *testing.T) {
	t.Parallel()
	denseRes, err := runFigure5(denseDrive)
	if err != nil {
		t.Fatal(err)
	}
	fastRes, err := runFigure5((*sim.System).Run)
	if err != nil {
		t.Fatal(err)
	}
	if denseRes.Cycles != fastRes.Cycles {
		t.Errorf("halt cycle: dense=%d fast-forward=%d", denseRes.Cycles, fastRes.Cycles)
	}
	if d, f := denseRes.Trace.String(), fastRes.Trace.String(); d != f {
		t.Errorf("traces differ:\n--- dense ---\n%s--- fast-forward ---\n%s", d, f)
	}
}
