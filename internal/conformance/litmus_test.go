package conformance

import (
	"testing"

	"mcmsim/internal/core"
	"mcmsim/internal/isa"
)

// legacyFor builds the legacy superset oracle's outcome set for an abstract
// program under m.
func legacyFor(t *testing.T, p Program, m core.Model) OutcomeSet {
	t.Helper()
	set, err := LegacyModelOutcomes(p.Build(), p.SharedAddrs(), m)
	if err != nil {
		t.Fatalf("legacy oracle(%v): %v", m, err)
	}
	return set
}

// litmusCase is one named litmus program with the exact oracle's expected
// verdict on its distinguishing relaxed outcome, per model.
type litmusCase struct {
	name    string
	prog    Program
	relaxed string              // the outcome that distinguishes the models
	allowed map[core.Model]bool // exact-oracle expectation for relaxed
	topo    string              // CheckOptions.Topo for the simulator grid
}

// litmusCorpus is the named litmus suite: the classic shapes with their
// textbook per-model verdicts under this machine (single multi-copy-atomic
// memory, FIFO store buffers, precise retirement), then the minimized
// conformance reproducers, named after the generator seed that found them,
// with the outcome the simulator once produced as relaxed. IRIW needs four
// processors, one more than the fuzz codec can express, which is exactly
// why it is pinned here as a direct table entry.
func litmusCorpus() []litmusCase {
	forbidEverywhere := map[core.Model]bool{
		core.SC: false, core.PC: false, core.WC: false, core.RCsc: false, core.RC: false,
	}
	// Outcomes that need an acquire to pass its processor's older write:
	// only SC and WC order a write before a later acquire.
	acqPassesWrite := map[core.Model]bool{
		core.SC: false, core.PC: true, core.WC: false, core.RCsc: true, core.RC: true,
	}
	return []litmusCase{
		{
			// Dekker / store buffering: both processors read zero only if
			// each read bypasses its own processor's pending store.
			name: "SB",
			prog: Program{NAddr: 2, Ops: [][]Op{
				{{Kind: KStore, Addr: 0, Val: 2}, {Kind: KLoad, Addr: 1}},
				{{Kind: KStore, Addr: 1, Val: 3}, {Kind: KLoad, Addr: 0}},
			}},
			relaxed: out([][]int64{{0}, {0}}, []int64{2, 3}),
			allowed: map[core.Model]bool{
				core.SC: false, core.PC: true, core.WC: true, core.RCsc: true, core.RC: true,
			},
		},
		{
			// SB with acquiring loads: an acquire may bypass the processor's
			// older plain store only where nothing orders a write before a
			// later acquire. SC orders everything, and WC orders every
			// access with a synchronization access; PC lets a read pass an
			// older write, and RCsc and RC order an acquire only with what
			// follows it. The one shape here that separates WC from RCsc.
			name: "SB+acq",
			prog: Program{NAddr: 2, Ops: [][]Op{
				{{Kind: KStore, Addr: 0, Val: 2}, {Kind: KAcquire, Addr: 1}},
				{{Kind: KStore, Addr: 1, Val: 3}, {Kind: KAcquire, Addr: 0}},
			}},
			relaxed: out([][]int64{{0}, {0}}, []int64{2, 3}),
			allowed: acqPassesWrite,
		},
		{
			// Message passing, unsynchronized: flag observed but data stale.
			// PC forbids it too: writes stay ordered and reads stay ordered.
			name: "MP",
			prog: Program{NAddr: 2, Ops: [][]Op{
				{{Kind: KStore, Addr: 0, Val: 2}, {Kind: KStore, Addr: 1, Val: 3}},
				{{Kind: KLoad, Addr: 1}, {Kind: KLoad, Addr: 0}},
			}},
			relaxed: out([][]int64{{}, {3, 0}}, []int64{2, 3}),
			allowed: map[core.Model]bool{
				core.SC: false, core.PC: false, core.WC: true, core.RCsc: true, core.RC: true,
			},
		},
		{
			// Message passing across a release/acquire pair: forbidden under
			// every model the machine implements.
			name: "MP+sync",
			prog: Program{NAddr: 2, Ops: [][]Op{
				{{Kind: KStore, Addr: 0, Val: 2}, {Kind: KRelease, Addr: 1, Val: 3}},
				{{Kind: KAcquire, Addr: 1}, {Kind: KLoad, Addr: 0}},
			}},
			relaxed: out([][]int64{{}, {3, 0}}, []int64{2, 3}),
			allowed: forbidEverywhere,
		},
		{
			// Load buffering: both loads observe the other processor's later
			// store. The machine never speculates stores (a write issues only
			// after every older read has bound), so no model allows it.
			name: "LB",
			prog: Program{NAddr: 2, Ops: [][]Op{
				{{Kind: KLoad, Addr: 0}, {Kind: KStore, Addr: 1, Val: 2}},
				{{Kind: KLoad, Addr: 1}, {Kind: KStore, Addr: 0, Val: 3}},
			}},
			relaxed: out([][]int64{{3}, {2}}, []int64{3, 2}),
			allowed: forbidEverywhere,
		},
		{
			// Write-to-read causality, three processors, unsynchronized: P2
			// sees P1's flag but not the datum P1 itself saw. Memory is
			// multi-copy atomic here, so the outcome needs P2's reads to
			// reorder — possible only where read-read arcs are absent.
			name: "WRC",
			prog: Program{NAddr: 2, Ops: [][]Op{
				{{Kind: KStore, Addr: 0, Val: 2}},
				{{Kind: KLoad, Addr: 0}, {Kind: KStore, Addr: 1, Val: 3}},
				{{Kind: KLoad, Addr: 1}, {Kind: KLoad, Addr: 0}},
			}},
			relaxed: out([][]int64{{}, {2}, {3, 0}}, []int64{2, 3}),
			allowed: map[core.Model]bool{
				core.SC: false, core.PC: false, core.WC: true, core.RCsc: true, core.RC: true,
			},
		},
		{
			// WRC with the flag release/acquire synced: forbidden everywhere.
			name: "WRC+sync",
			prog: Program{NAddr: 2, Ops: [][]Op{
				{{Kind: KStore, Addr: 0, Val: 2}},
				{{Kind: KLoad, Addr: 0}, {Kind: KRelease, Addr: 1, Val: 3}},
				{{Kind: KAcquire, Addr: 1}, {Kind: KLoad, Addr: 0}},
			}},
			relaxed: out([][]int64{{}, {2}, {3, 0}}, []int64{2, 3}),
			allowed: forbidEverywhere,
		},
		{
			// IRIW, four processors: the two readers disagree on the order of
			// the two independent writes. Multi-copy-atomic memory means the
			// outcome needs read-read reordering at both readers.
			name: "IRIW",
			prog: Program{NAddr: 2, Ops: [][]Op{
				{{Kind: KStore, Addr: 0, Val: 2}},
				{{Kind: KStore, Addr: 1, Val: 3}},
				{{Kind: KLoad, Addr: 0}, {Kind: KLoad, Addr: 1}},
				{{Kind: KLoad, Addr: 1}, {Kind: KLoad, Addr: 0}},
			}},
			relaxed: out([][]int64{{}, {}, {2, 0}, {3, 0}}, []int64{2, 3}),
			allowed: map[core.Model]bool{
				core.SC: false, core.PC: false, core.WC: true, core.RCsc: true, core.RC: true,
			},
		},
		{
			// IRIW with acquiring readers: acquires order with older acquires
			// under RC/RCsc and with everything under SC/PC/WC.
			name: "IRIW+acq",
			prog: Program{NAddr: 2, Ops: [][]Op{
				{{Kind: KStore, Addr: 0, Val: 2}},
				{{Kind: KStore, Addr: 1, Val: 3}},
				{{Kind: KAcquire, Addr: 0}, {Kind: KAcquire, Addr: 1}},
				{{Kind: KAcquire, Addr: 1}, {Kind: KAcquire, Addr: 0}},
			}},
			relaxed: out([][]int64{{}, {}, {2, 0}, {3, 0}}, []int64{2, 3}),
			allowed: forbidEverywhere,
		},
		{
			// SB+acq with P0's acquire line warm: the acquire hits at once,
			// so under WC its speculative-load buffer row must carry the
			// older plain store as its tag, or the row leaves before the
			// store performs and an invalidation of A1 goes unseen.
			name: "conform-3290",
			prog: Program{NAddr: 2, Ops: [][]Op{
				{{Kind: KLoad, Addr: 1}, {Kind: KStore, Addr: 0, Val: 2}, {Kind: KAcquire, Addr: 1}},
				{{Kind: KStore, Addr: 1, Val: 5}, {Kind: KAcquire, Addr: 0}},
			}},
			relaxed: out([][]int64{{0, 0}, {0}}, []int64{2, 5}),
			allowed: acqPassesWrite,
		},
		{
			// SB+acq through coherence order: P0's acquire reads its own
			// A0 and P1's later store to A0 wins, while P1's acquire hits
			// its warm A2 before P0's store to A2. Each acquire waits for
			// its processor's older store under WC.
			name: "conform-1039",
			prog: Program{NAddr: 3, Ops: [][]Op{
				{{Kind: KStore, Addr: 0, Val: 3}, {Kind: KStore, Addr: 2, Val: 4}, {Kind: KAcquire, Addr: 0}},
				{{Kind: KLoad, Addr: 2}, {Kind: KStore, Addr: 0, Val: 7}, {Kind: KAcquire, Addr: 2}},
			}},
			relaxed: out([][]int64{{3}, {0, 0}}, []int64{7, 0, 4}),
			allowed: acqPassesWrite,
		},
		{
			// SB with read-modify-writes: a load after an RMW waits for it
			// under every model. When an RMW's atomic issues before its
			// read-exclusive part, the RMW has no buffer row, so the later
			// load's row must carry the RMW as its tag until the atomic
			// completes.
			name: "conform-2082",
			prog: Program{NAddr: 3, Ops: [][]Op{
				{{Kind: KAcquire, Addr: 2}, {Kind: KRMW, Addr: 2, Val: 2, RMW: isa.RMWTestAndSet}, {Kind: KLoad, Addr: 0}},
				{{Kind: KLoad, Addr: 0}, {Kind: KRMW, Addr: 0, Val: 3, RMW: isa.RMWTestAndSet}, {Kind: KLoad, Addr: 2}},
				{{Kind: KRelease, Addr: 0, Val: 6}},
			}},
			relaxed: out([][]int64{{0, 0, 6}, {0, 6, 0}, {}}, []int64{1, 0, 1}),
			allowed: forbidEverywhere,
		},
		{
			// P0 stores A0 and then acquires A1; P2 stores A1 and then
			// updates A0 atomically; P1 is empty. The outcome needs P0's
			// acquire to pass its older store, which WC forbids. Only a
			// mesh's hop latencies open the window.
			name: "conform-48",
			prog: Program{NAddr: 2, Ops: [][]Op{
				{{Kind: KLoad, Addr: 0}, {Kind: KStore, Addr: 0, Val: 2}, {Kind: KAcquire, Addr: 1}},
				{},
				{{Kind: KStore, Addr: 1, Val: 6}, {Kind: KRMW, Addr: 0, Val: 7, RMW: isa.RMWFetchAdd}},
			}},
			relaxed: out([][]int64{{0, 0}, {}, {0}}, []int64{2, 6}),
			allowed: acqPassesWrite,
			topo:    "mesh",
		},
	}
}

// TestLitmusCorpusOracles pins the named corpus against both reference
// models: the exact oracle must give the textbook verdict on each case's
// distinguishing outcome for every model, the legacy superset must contain
// the exact set everywhere, and the two must coincide under SC.
func TestLitmusCorpusOracles(t *testing.T) {
	for _, tc := range litmusCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			for _, m := range core.AllModels {
				exact := oracleFor(t, tc.prog, m)
				legacy := legacyFor(t, tc.prog, m)
				if got, want := exact.Has(tc.relaxed), tc.allowed[m]; got != want {
					t.Errorf("%v: exact.Has(relaxed) = %v, want %v; set: %v",
						m, got, want, exact.Sorted())
				}
				if !exact.Subset(legacy) {
					t.Errorf("%v: exact set escapes the legacy superset\nexact: %v\nlegacy: %v",
						m, exact.Sorted(), legacy.Sorted())
				}
				if m == core.SC && !exact.Equal(legacy) {
					t.Errorf("SC: exact and legacy disagree\nexact: %v\nlegacy: %v",
						exact.Sorted(), legacy.Sorted())
				}
			}
		})
	}
}

// TestLitmusCorpusSimulator runs every corpus program (including the
// 4-processor IRIW pair, which the fuzz codec cannot reach) through the
// paper-timing grid: all models, techniques, and both protocols, checked
// against the exact oracle, on the case's own network.
func TestLitmusCorpusSimulator(t *testing.T) {
	for _, tc := range litmusCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			_, viols := CheckProgram(tc.prog, CheckOptions{Quick: true, Topo: tc.topo})
			for _, v := range viols {
				t.Errorf("%v", v)
			}
		})
	}
}
