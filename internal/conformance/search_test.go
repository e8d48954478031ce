package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"mcmsim/internal/core"
)

// pinnedOracleHash is the SHA-256 of oracleDigest over generated programs
// 1-256: every model, both oracles, each search's visited-state count and
// its sorted outcome set. It was recorded while both oracles still copied
// the whole state at every step, so it pins the in-place search to exactly
// the outcomes and states of the copying one.
const pinnedOracleHash = "a7f5b8f1ced4337bc7abcb5ea2ee32e853e3a76839e0625183bf8e9f70937fde"

// oracleDigest hashes, for every program seed in [1, n], every model and
// both oracles, one header line (seed, model, oracle, visited states)
// followed by the sorted outcome set.
func oracleDigest(t *testing.T, n int64) string {
	t.Helper()
	h := sha256.New()
	for seed := int64(1); seed <= n; seed++ {
		p := Generate(seed, Params{})
		progs, shared := p.Build(), p.SharedAddrs()
		for _, m := range core.AllModels {
			exact, err := NewExactOracle(progs, shared, m)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, m, err)
			}
			set, err := exact.Outcomes()
			if err != nil {
				t.Fatalf("seed %d %v exact: %v", seed, m, err)
			}
			fmt.Fprintf(h, "%d %v exact %d\n", seed, m, len(exact.memo))
			for _, o := range set.Sorted() {
				fmt.Fprintln(h, o)
			}
			legacy, err := NewLegacyOracle(progs, shared, m)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, m, err)
			}
			set, err = legacy.Outcomes()
			if err != nil {
				t.Fatalf("seed %d %v legacy: %v", seed, m, err)
			}
			fmt.Fprintf(h, "%d %v legacy %d\n", seed, m, len(legacy.memo))
			for _, o := range set.Sorted() {
				fmt.Fprintln(h, o)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestOracleOutcomesPinned holds both oracles to the outcome sets and
// visited-state counts recorded in pinnedOracleHash.
func TestOracleOutcomesPinned(t *testing.T) {
	if got := oracleDigest(t, 256); got != pinnedOracleHash {
		t.Errorf("oracle digest over programs 1-256 = %s, pinned %s", got, pinnedOracleHash)
	}
}

// TestOracleSearchAllocs guards the in-place search: apart from a fixed
// set-up and the maps' growth, a search allocates one memo key per new
// state and one string per outcome, and nothing per step. Program 4
// visits 1665 exact and 1144 legacy states under RC; a search that copied
// the state at every step allocated several objects per step.
func TestOracleSearchAllocs(t *testing.T) {
	const slack = 64 // state slices, key and text buffers, the two maps' growth
	p := Generate(4, Params{})
	progs, shared := p.Build(), p.SharedAddrs()
	exact, err := NewExactOracle(progs, shared, core.RC)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := NewLegacyOracle(progs, shared, core.RC)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		search interface{ Outcomes() (OutcomeSet, error) }
		memo   *memoSearch
	}{
		{"exact", exact, &exact.memoSearch},
		{"legacy", legacy, &legacy.memoSearch},
	} {
		set, err := tc.search.Outcomes()
		if err != nil {
			t.Fatal(err)
		}
		limit := float64(len(tc.memo.memo) + len(set) + slack)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := tc.search.Outcomes(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > limit {
			t.Errorf("%s oracle: %.0f allocations for %d states and %d outcomes, want at most %.0f",
				tc.name, allocs, len(tc.memo.memo), len(set), limit)
		}
	}
}

// TestOutcomeString pins the outcome text byte for byte: it is the set
// key both oracles and every simulated cell share, and reports print it.
// Each row must also match what fmt's %v renders for the same slices.
func TestOutcomeString(t *testing.T) {
	for _, tc := range []struct {
		binds [][]int64
		mem   []int64
		want  string
	}{
		{[][]int64{{1, -2}, {}}, []int64{3, 4}, "P0:[1 -2] P1:[] mem:[3 4]"},
		{[][]int64{{0}, {0}}, []int64{2, 3}, "P0:[0] P1:[0] mem:[2 3]"},
		{[][]int64{{3}, {0, 0}, {4, 5}}, []int64{7, 5, 4, 2}, "P0:[3] P1:[0 0] P2:[4 5] mem:[7 5 4 2]"},
		{[][]int64{nil}, nil, "P0:[] mem:[]"},
		{nil, []int64{0}, " mem:[0]"},
		{[][]int64{{math.MinInt64, math.MaxInt64}}, []int64{-10}, "P0:[-9223372036854775808 9223372036854775807] mem:[-10]"},
	} {
		got := outcomeString(tc.binds, tc.mem)
		if got != tc.want {
			t.Errorf("outcomeString(%v, %v) = %q, want %q", tc.binds, tc.mem, got, tc.want)
		}
		var b strings.Builder
		for p, pb := range tc.binds {
			if p > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "P%d:%v", p, pb)
		}
		fmt.Fprintf(&b, " mem:%v", tc.mem)
		if b.String() != tc.want {
			t.Errorf("fmt renders %q, table says %q", b.String(), tc.want)
		}
	}
}
