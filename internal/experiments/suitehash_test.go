package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mcmsim/internal/coherence"
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
		{"mesi", coherence.ProtoMESI, "5922b5b549a6f234"},
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
