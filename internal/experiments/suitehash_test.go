package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mcmsim/internal/coherence"
	"mcmsim/internal/conformance"
	"mcmsim/internal/runner"
)

// TestSuiteOutputPinned pins every simulated result the experiment suite
// reports: the CSV of the full suite (what `sweep -exp all -format csv
// -quiet` prints) must hash to the recorded values under both base
// protocols, so any change to simulated behaviour fails the plain test
// run, not only the byte-identity checks run by hand.
//
// A change that is meant to alter results re-pins the hashes: run
// `go run ./cmd/sweep -exp all -format csv -quiet | sha256sum` (and again
// with `-protocol mesi`), take the first 16 hex digits, and say in the
// change description why the results moved.
func TestSuiteOutputPinned(t *testing.T) {
	for _, c := range []struct {
		name  string
		proto coherence.Protocol
		want  string
	}{
		{"msi", coherence.ProtoInvalidate, "61748193b5252b82"},
		{"mesi", coherence.ProtoMESI, "985737751cd0ef79"},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := DefaultParams()
			p.Protocol = c.proto
			out := renderSuiteParams(t, p, runner.FormatCSV, runner.Options{WarmupCache: runner.NewWarmupCache()})
			sum := sha256.Sum256(out)
			if got := hex.EncodeToString(sum[:])[:16]; got != c.want {
				t.Errorf("suite CSV hashes to %s, pinned %s: simulated results changed", got, c.want)
			}
		})
	}
}

// TestConformOutputPinned pins the conformance report the same way: the
// 64-program batch at seed 1 over the full grid, rendered as `conform
// -seed 1 -n 64 -quiet` prints it, must hash to the recorded value. A
// change that moves it re-pins it with `go run ./cmd/conform -seed 1 -n
// 64 -quiet | sha256sum` and says why the results moved.
func TestConformOutputPinned(t *testing.T) {
	const seed, n, want = 1, 64, "69f9490173f173dc"
	var params conformance.Params
	var opts conformance.CheckOptions
	results := runner.Run(conformance.BatchJobs(seed, n, params, opts), runner.Options{})
	var out bytes.Buffer
	conformance.Summarize(&out, conformance.BatchReport(seed, n, params, results), seed, n, opts)
	sum := sha256.Sum256(out.Bytes())
	if got := hex.EncodeToString(sum[:])[:16]; got != want {
		t.Errorf("conformance report hashes to %s, pinned %s: simulated results changed\n%s", got, want, out.Bytes())
	}
}
