package conformance

import (
	"strings"
	"testing"

	"mcmsim/internal/core"
)

// TestExactCoRR pins the first hole the exact oracle closes over the
// legacy superset: same-address read-read ordering. Two program-order
// loads of one variable can never observe new-then-old — the load queue
// issues head-only and same-line requests are served in order — yet the
// legacy model leaves same-address read pairs unordered wherever the
// model's arcs do not happen to order them (WC and both RC flavours).
func TestExactCoRR(t *testing.T) {
	p := Program{NAddr: 1, Ops: [][]Op{
		{{Kind: KStore, Addr: 0, Val: 2}},
		{{Kind: KLoad, Addr: 0}, {Kind: KLoad, Addr: 0}},
	}}
	newThenOld := out([][]int64{{}, {2, 0}}, []int64{2})
	for _, m := range core.AllModels {
		if set := oracleFor(t, p, m); set.Has(newThenOld) {
			t.Errorf("%v: exact oracle allows the new-then-old read pair", m)
		}
	}
	for _, m := range []core.Model{core.WC, core.RCsc, core.RC} {
		if set := legacyFor(t, p, m); !set.Has(newThenOld) {
			t.Errorf("%v: legacy oracle no longer admits new-then-old — it stopped being a strict superset here", m)
		}
	}
	// The simulator must side with the exact oracle: the full grid checks
	// every cell's outcome for containment in the exact set, which forbids
	// new-then-old under every model.
	if _, viols := CheckProgram(p, CheckOptions{}); len(viols) > 0 {
		for _, v := range viols {
			t.Errorf("%v", v)
		}
	}
}

// TestExactStoreFIFO pins the second hole: the store buffer issues writes
// in program order across addresses, not just per address. Under RC an
// ordinary store after a release carries no delay arc, so the legacy
// model lets it perform first; in the machine it cannot even issue until
// the release has issued, and the release's own arcs wait for everything
// older to perform. Observing the last store therefore proves the first
// store performed.
func TestExactStoreFIFO(t *testing.T) {
	p := Program{NAddr: 3, Ops: [][]Op{
		{{Kind: KStore, Addr: 0, Val: 2}, {Kind: KRelease, Addr: 1, Val: 3}, {Kind: KStore, Addr: 2, Val: 4}},
		{{Kind: KAcquire, Addr: 2}, {Kind: KLoad, Addr: 0}},
	}}
	bad := out([][]int64{{}, {4, 0}}, []int64{2, 3, 4})
	for _, m := range core.AllModels {
		if set := oracleFor(t, p, m); set.Has(bad) {
			t.Errorf("%v: exact oracle allows the FIFO-violating outcome", m)
		}
	}
	for _, m := range []core.Model{core.RCsc, core.RC} {
		if set := legacyFor(t, p, m); !set.Has(bad) {
			t.Errorf("%v: legacy oracle no longer admits the FIFO-violating outcome — it stopped being a strict superset here", m)
		}
	}
	if _, viols := CheckProgram(p, CheckOptions{}); len(viols) > 0 {
		for _, v := range viols {
			t.Errorf("%v", v)
		}
	}
}

// TestOracleDifferential is the standing property check between the two
// reference models: over a batch of seeded random programs, the exact set
// is contained in the legacy superset for every model, and the two agree
// exactly under SC. A failure is 1-minimized before reporting.
func TestOracleDifferential(t *testing.T) {
	const programs = 512
	diverges := func(c Program, m core.Model) bool {
		if c.NumOps() == 0 {
			return false
		}
		exact, err := ModelOutcomes(c.Build(), c.SharedAddrs(), m)
		if err != nil {
			return false
		}
		legacy, err := LegacyModelOutcomes(c.Build(), c.SharedAddrs(), m)
		if err != nil {
			return false
		}
		if !exact.Subset(legacy) {
			return true
		}
		return m == core.SC && !legacy.Subset(exact)
	}
	for seed := int64(1); seed <= programs; seed++ {
		p := Generate(seed, Params{})
		for _, m := range core.AllModels {
			if !diverges(p, m) {
				continue
			}
			min := Minimize(p, func(c Program) bool { return diverges(c, m) })
			exact, _ := ModelOutcomes(min.Build(), min.SharedAddrs(), m)
			legacy, _ := LegacyModelOutcomes(min.Build(), min.SharedAddrs(), m)
			t.Fatalf("oracle differential failed under %v (seed %d); minimized reproducer:\n%v\nexact: %v\nlegacy: %v",
				m, seed, min, exact.Sorted(), legacy.Sorted())
		}
	}
}

// TestOracleStateCapHardError pins the cap semantics of both oracles: a
// state space over the cap is a hard error from Outcomes, never a
// silently truncated outcome set. The cap is set one below each oracle's
// measured state count for the same program, making the program
// just-over-cap by construction.
func TestOracleStateCapHardError(t *testing.T) {
	p := Generate(3, Params{})
	progs, shared := p.Build(), p.SharedAddrs()

	exact, err := NewExactOracle(progs, shared, core.RC)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exact.Outcomes(); err != nil {
		t.Fatalf("under the default cap: %v", err)
	}
	capped, err := NewExactOracle(progs, shared, core.RC)
	if err != nil {
		t.Fatal(err)
	}
	capped.maxStates = len(exact.memo) - 1
	if _, err := capped.Outcomes(); err == nil {
		t.Errorf("exact oracle returned outcomes despite exceeding the state cap")
	} else if !strings.Contains(err.Error(), "state space exceeds") {
		t.Errorf("exact oracle cap error = %v, want a state-space message", err)
	}

	legacy, err := NewLegacyOracle(progs, shared, core.RC)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := legacy.Outcomes(); err != nil {
		t.Fatalf("under the default cap: %v", err)
	}
	lcapped, err := NewLegacyOracle(progs, shared, core.RC)
	if err != nil {
		t.Fatal(err)
	}
	lcapped.maxStates = len(legacy.memo) - 1
	if _, err := lcapped.Outcomes(); err == nil {
		t.Errorf("legacy oracle returned outcomes despite exceeding the state cap")
	} else if !strings.Contains(err.Error(), "state space exceeds") {
		t.Errorf("legacy oracle cap error = %v, want a state-space message", err)
	}
}
