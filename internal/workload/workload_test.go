package workload

import (
	"testing"

	"mcmsim/internal/isa"
)

func TestCriticalSectionShape(t *testing.T) {
	p := CriticalSection(0, 4, 2, 3, 2)
	// 2 rounds x (lock(2) + 3*(ld,addi,st) + unlock) + halt
	want := 2*(2+9+1) + 1
	if p.Len() != want {
		t.Errorf("program length = %d, want %d", p.Len(), want)
	}
	// First instruction of each round is a test-and-set.
	if p.Instrs[0].Op != isa.OpRMW {
		t.Error("critical section must start with a lock RMW")
	}
}

func TestCriticalSectionLockRotation(t *testing.T) {
	p0 := CriticalSection(0, 2, 2, 1, 2)
	// Round 0 uses lock 0, round 1 uses lock 1 for processor 0.
	var lockAddrs []int64
	for _, in := range p0.Instrs {
		if in.Op == isa.OpRMW {
			lockAddrs = append(lockAddrs, in.Imm)
		}
	}
	if len(lockAddrs) != 2 || lockAddrs[0] == lockAddrs[1] {
		t.Errorf("locks not rotated: %v", lockAddrs)
	}
}

func TestProducerConsumerUsesSyncAccesses(t *testing.T) {
	prod, cons := ProducerConsumer(4)
	hasRelease := false
	for _, in := range prod.Instrs {
		if in.Op == isa.OpRelease {
			hasRelease = true
		}
	}
	if !hasRelease {
		t.Error("producer must publish with a release store")
	}
	hasAcquire := false
	for _, in := range cons.Instrs {
		if in.Op == isa.OpAcquire {
			hasAcquire = true
		}
	}
	if !hasAcquire {
		t.Error("consumer must spin with acquire loads")
	}
}

func TestRandomSharingDeterministic(t *testing.T) {
	a := RandomSharing(1, 4, DefaultMix(5))
	b := RandomSharing(1, 4, DefaultMix(5))
	if a.Len() != b.Len() {
		t.Fatal("same seed produced different lengths")
	}
	for i := range a.Instrs {
		if a.Instrs[i] != b.Instrs[i] {
			t.Fatalf("instruction %d differs for identical seeds", i)
		}
	}
	c := RandomSharing(2, 4, DefaultMix(5))
	same := a.Len() == c.Len()
	if same {
		same = false
		for i := range a.Instrs {
			if a.Instrs[i] != c.Instrs[i] {
				same = false
				break
			}
			same = true
		}
	}
	if same {
		t.Error("different processors produced identical programs")
	}
}

func TestRandomSharingLockPairing(t *testing.T) {
	// Every lock acquire must have a matching release of the same lock
	// before the next acquire or halt.
	for seed := int64(0); seed < 5; seed++ {
		p := RandomSharing(0, 2, DefaultMix(seed))
		var held int64 = -1
		for i, in := range p.Instrs {
			switch in.Op {
			case isa.OpRMW:
				if held != -1 {
					t.Fatalf("seed %d: nested lock at %d", seed, i)
				}
				held = in.Imm
			case isa.OpRelease:
				if held == -1 || in.Imm != held {
					t.Fatalf("seed %d: unmatched release at %d (held=%#x, rel=%#x)", seed, i, held, in.Imm)
				}
				held = -1
			}
		}
		if held != -1 {
			t.Fatalf("seed %d: program ends holding lock %#x", seed, held)
		}
	}
}

func TestRandomSharingPartitionsAreDisjoint(t *testing.T) {
	// With Sync on, shared accesses under lock k must stay inside partition
	// k, which is the property that makes the workload data-race-free.
	mix := DefaultMix(3)
	p := RandomSharing(0, 2, mix)
	var held int64 = -1
	for i, in := range p.Instrs {
		switch in.Op {
		case isa.OpRMW:
			held = (in.Imm - 0x1000) / 0x10
		case isa.OpRelease:
			held = -1
		case isa.OpLoad, isa.OpStore:
			addr := in.Imm
			if addr >= 0x4000 && addr < 0x10000 { // shared region
				if held < 0 {
					t.Fatalf("unsynchronized shared access at %d", i)
				}
				part := (addr - 0x4000) / int64(mix.SharedWords)
				if part != held {
					t.Fatalf("access at %d in partition %d while holding lock %d", i, part, held)
				}
			}
		}
	}
}

func TestFalseSharingNeighboursShareLine(t *testing.T) {
	p0 := FalseSharing(0, 1)
	p1 := FalseSharing(1, 1)
	var a0, a1 int64
	for _, in := range p0.Instrs {
		if in.Op == isa.OpStore {
			a0 = in.Imm
		}
	}
	for _, in := range p1.Instrs {
		if in.Op == isa.OpStore {
			a1 = in.Imm
		}
	}
	if a1 != a0+1 {
		t.Errorf("false-sharing words not adjacent: %#x %#x", a0, a1)
	}
}

func TestLitmusBatteryShape(t *testing.T) {
	battery := AllLitmus()
	if len(battery) != 5 {
		t.Fatalf("battery size = %d", len(battery))
	}
	names := map[string]bool{}
	for _, l := range battery {
		if names[l.Name] {
			t.Errorf("duplicate litmus name %s", l.Name)
		}
		names[l.Name] = true
		progs := l.Programs()
		if len(progs) < 2 {
			t.Errorf("%s: %d programs", l.Name, len(progs))
		}
		for i, p := range progs {
			if p.Len() == 0 || p.Instrs[p.Len()-1].Op != isa.OpHalt {
				t.Errorf("%s prog %d must end in halt", l.Name, i)
			}
		}
	}
	for _, want := range []string{"SB", "MP", "SB+sync", "MP+sync", "LB"} {
		if !names[want] {
			t.Errorf("missing litmus %s", want)
		}
	}
}

func TestExamplesEndWithHalt(t *testing.T) {
	for name, p := range map[string]*isa.Program{
		"example1":       Example1(),
		"example2":       Example2(),
		"example2warmup": Example2Warmup(),
		"figure5":        Figure5(),
		"idle":           Idle(),
		"arraysweep":     ArraySweep(0, 4),
	} {
		if p.Instrs[p.Len()-1].Op != isa.OpHalt {
			t.Errorf("%s does not end with halt", name)
		}
	}
}

func TestExample2AccessSequence(t *testing.T) {
	p := Example2()
	var memOps []isa.Op
	var addrs []int64
	for _, in := range p.Instrs {
		if in.IsMemory() {
			memOps = append(memOps, in.Op)
			addrs = append(addrs, in.Imm)
		}
	}
	wantOps := []isa.Op{isa.OpRMW, isa.OpLoad, isa.OpLoad, isa.OpLoad, isa.OpRelease}
	if len(memOps) != len(wantOps) {
		t.Fatalf("memory ops = %v", memOps)
	}
	for i := range wantOps {
		if memOps[i] != wantOps[i] {
			t.Errorf("op %d = %v, want %v", i, memOps[i], wantOps[i])
		}
	}
	if addrs[1] != AddrC || addrs[2] != AddrD || addrs[3] != AddrE {
		t.Errorf("addresses = %#x", addrs)
	}
}

// TestBarrierPhasesSizedExactly: the builder reservation in BarrierPhases
// matches the emitted length, so the large mesh programs never re-grow.
func TestBarrierPhasesSizedExactly(t *testing.T) {
	for _, c := range []struct{ phases, work int }{{1, 0}, {1, 32768}, {3, 2}, {5, 4}} {
		if got, want := BarrierPhases(0, 4, c.phases, c.work).Len(), 2+c.phases*(4*c.work+11)+2; got != want {
			t.Errorf("BarrierPhases(phases=%d, work=%d) emits %d instructions, reserves %d", c.phases, c.work, got, want)
		}
	}
}

func TestBarrierPhasesShape(t *testing.T) {
	p := BarrierPhases(1, 4, 3, 2)
	var rmws, releases, acquires int
	for _, in := range p.Instrs {
		switch in.Op {
		case isa.OpRMW:
			if in.RMW != isa.RMWFetchAdd {
				t.Error("barrier arrival must be a fetch-add")
			}
			rmws++
		case isa.OpRelease:
			releases++
		case isa.OpAcquire:
			acquires++
		}
	}
	if rmws != 3 {
		t.Errorf("rmws = %d, want one per phase", rmws)
	}
	if releases != 3 {
		t.Errorf("releases = %d, want one per phase (last-arriver path)", releases)
	}
	if acquires == 0 {
		t.Error("no acquire spin loads emitted")
	}
}

func TestSoftwarePrefetchSweepShape(t *testing.T) {
	p := SoftwarePrefetchSweep(0, 8, 3)
	var pf, loads, stores int
	firstLoad := -1
	for i, in := range p.Instrs {
		switch in.Op {
		case isa.OpPrefetchEx:
			pf++
		case isa.OpLoad:
			loads++
			if firstLoad < 0 {
				firstLoad = i
			}
		case isa.OpStore:
			stores++
		}
	}
	if loads != 8 || stores != 8 {
		t.Errorf("loads/stores = %d/%d, want 8/8", loads, stores)
	}
	if pf != 8 {
		t.Errorf("prefetches = %d, want one per element", pf)
	}
	// The prologue prefetches run before the first demand load.
	if firstLoad < 3 {
		t.Errorf("prologue missing: first load at %d", firstLoad)
	}
}

func TestEqualizationMixGentler(t *testing.T) {
	d := DefaultMix(1)
	e := EqualizationMix(1)
	if e.ShareFrac >= d.ShareFrac {
		t.Error("equalization mix must share less than the default")
	}
	if e.Locks <= d.Locks {
		t.Error("equalization mix must stripe across more locks")
	}
	if !e.Sync {
		t.Error("equalization mix must stay data-race-free")
	}
}
