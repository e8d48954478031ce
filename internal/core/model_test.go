package core

import (
	"testing"

	"mcmsim/internal/isa"
)

// TestBlocksIssueMatrix pins the full Figure 1 delay-arc matrix: for every
// model and every ordered pair of access classes, whether an incomplete
// older access delays the younger one.
func TestBlocksIssueMatrix(t *testing.T) {
	type pair struct{ older, cur AccessClass }
	allClasses := []AccessClass{ClassLoad, ClassStore, ClassAcquire, ClassRelease, ClassRMW}

	// Expected delays per model, expressed as exceptions from a base rule.
	expect := func(m Model, older, cur AccessClass) bool {
		switch m {
		case SC:
			return true
		case PC:
			// Pure reads (load, acquire) bypass previous writes but wait for
			// previous reads. Everything else waits for everything.
			if cur.isRead() && !cur.isWrite() {
				return older.isRead()
			}
			return true
		case WC:
			if cur.isSync() {
				return true
			}
			return older.isSync()
		case RC:
			if cur == ClassRelease {
				return true
			}
			return older.isAcquire()
		case RCsc:
			if cur == ClassRelease {
				return true
			}
			if cur.isAcquire() {
				return older.isSync()
			}
			return older.isAcquire()
		}
		panic("unreachable")
	}

	for _, m := range AllModels {
		for _, older := range allClasses {
			for _, cur := range allClasses {
				want := expect(m, older, cur)
				if got := blocksIssue(m, older, cur); got != want {
					t.Errorf("%v: blocksIssue(%v -> %v) = %v, want %v", m, older, cur, got, want)
				}
			}
		}
	}
}

// TestStrictnessOrdering property over the matrix: SC delays everything any
// other model delays; RC's ordinary accesses are the least constrained.
func TestStrictnessOrdering(t *testing.T) {
	allClasses := []AccessClass{ClassLoad, ClassStore, ClassAcquire, ClassRelease, ClassRMW}
	for _, older := range allClasses {
		for _, cur := range allClasses {
			sc := blocksIssue(SC, older, cur)
			for _, m := range []Model{PC, WC, RCsc, RC} {
				if blocksIssue(m, older, cur) && !sc {
					t.Errorf("%v delays (%v -> %v) but SC does not", m, older, cur)
				}
			}
			// Ordinary-after-ordinary is free under WC and both RCs.
			if !older.isSync() && !cur.isSync() {
				if blocksIssue(WC, older, cur) || blocksIssue(RC, older, cur) || blocksIssue(RCsc, older, cur) {
					t.Errorf("ordinary pair (%v -> %v) delayed under WC/RC", older, cur)
				}
			}
		}
	}
}

// TestRCReleaseAndAcquireArcs pins the distinguishing RCpc rules.
func TestRCReleaseAndAcquireArcs(t *testing.T) {
	// A release waits for everything previous.
	for _, older := range []AccessClass{ClassLoad, ClassStore, ClassAcquire, ClassRelease, ClassRMW} {
		if !blocksIssue(RC, older, ClassRelease) {
			t.Errorf("RC: release must wait for older %v", older)
		}
	}
	// An acquire may bypass a pending release (PC among specials) but waits
	// for older acquires.
	if blocksIssue(RC, ClassRelease, ClassAcquire) {
		t.Error("RCpc: acquire must be allowed to bypass a pending release")
	}
	if !blocksIssue(RC, ClassAcquire, ClassAcquire) {
		t.Error("RCpc: acquire must wait for older acquires")
	}
	// Ordinary accesses wait only for acquires.
	if blocksIssue(RC, ClassRelease, ClassLoad) || blocksIssue(RC, ClassStore, ClassLoad) {
		t.Error("RC: ordinary load must not wait for older release/store")
	}
	if !blocksIssue(RC, ClassAcquire, ClassLoad) || !blocksIssue(RC, ClassRMW, ClassStore) {
		t.Error("RC: ordinary accesses must wait for older acquires")
	}
	// RCsc keeps special accesses sequentially consistent: the acquire may
	// NOT bypass a pending release, but ordinary accesses are as free as
	// under RCpc.
	if !blocksIssue(RCsc, ClassRelease, ClassAcquire) {
		t.Error("RCsc: acquire must wait for a pending release")
	}
	if blocksIssue(RCsc, ClassRelease, ClassLoad) {
		t.Error("RCsc: ordinary load must not wait for older release")
	}
}

// TestWCSyncArcs pins WCsc: sync accesses are barriers in both directions.
func TestWCSyncArcs(t *testing.T) {
	if !blocksIssue(WC, ClassLoad, ClassRelease) || !blocksIssue(WC, ClassStore, ClassAcquire) {
		t.Error("WC: a sync access must wait for all previous accesses")
	}
	if !blocksIssue(WC, ClassRelease, ClassLoad) || !blocksIssue(WC, ClassAcquire, ClassStore) {
		t.Error("WC: accesses after a sync must wait for it")
	}
	if blocksIssue(WC, ClassLoad, ClassStore) {
		t.Error("WC: ordinary accesses between syncs must pipeline")
	}
}

// TestSpecBufferAcqBit pins the acq-bit policy of §4.2 as the buffer
// derives it from the delay arcs: "for SC, all loads are treated as
// acquires", PC keeps every read ordered with later reads, and WC, RCsc
// and RC set the bit only for acquires and read-modify-writes. An older
// acquire miss holds each probed row in the buffer long enough to read it.
func TestSpecBufferAcqBit(t *testing.T) {
	for _, m := range AllModels {
		for _, in := range []isa.Instruction{ld(0x100), ldAcq(0x100), tas(0x100)} {
			c := classOf(in)
			r := newRig(t, Config{Model: m, Tech: Technique{SpecLoad: true}})
			r.lsu.Dispatch(1, ldAcq(0x300), true, 0, true, 0)
			r.lsu.Dispatch(2, in, true, 0, true, 0)
			r.run(2)
			rows := r.lsu.SpecBufferSnapshot()
			if len(rows) != 2 || rows[1].Seq != 2 {
				t.Fatalf("%v %v: spec buffer = %+v, want the acquire's row and the probe's", m, c, rows)
			}
			want := m == SC || m == PC || c.isAcquire()
			if rows[1].Acq != want {
				t.Errorf("%v: %v sets acq = %v, want %v", m, c, rows[1].Acq, want)
			}
		}
	}
}

func TestAccessClassPredicates(t *testing.T) {
	cases := []struct {
		c                          AccessClass
		read, write, sync, acquire bool
	}{
		{ClassLoad, true, false, false, false},
		{ClassStore, false, true, false, false},
		{ClassAcquire, true, false, true, true},
		{ClassRelease, false, true, true, false},
		{ClassRMW, true, true, true, true},
	}
	for _, c := range cases {
		if c.c.isRead() != c.read || c.c.isWrite() != c.write ||
			c.c.isSync() != c.sync || c.c.isAcquire() != c.acquire {
			t.Errorf("%v predicates wrong", c.c)
		}
	}
}

func TestModelParsing(t *testing.T) {
	for _, m := range AllModels {
		got, err := ParseModel(m.String())
		if err != nil || got != m {
			t.Errorf("ParseModel(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseModel("TSO"); err == nil {
		t.Error("unknown model must error")
	}
}

func TestTechniqueNames(t *testing.T) {
	cases := map[string]Technique{
		"conv":     {},
		"pf":       {Prefetch: true},
		"spec":     {SpecLoad: true},
		"pf+spec":  {Prefetch: true, SpecLoad: true},
		"advehill": {AdveHill: true},
	}
	for want, tech := range cases {
		if tech.String() != want {
			t.Errorf("%+v.String() = %q, want %q", tech, tech.String(), want)
		}
	}
}
