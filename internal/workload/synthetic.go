package workload

import (
	"math/rand"

	"mcmsim/internal/isa"
)

// Layout constants for the synthetic workloads. Shared data regions are
// placed far apart so distinct structures never share lines even with
// multi-word lines.
const (
	lockBase    = 0x1000
	counterBase = 0x2000
	arrayBase   = 0x4000
	flagBase    = 0x8000
	privBase    = 0x10000 // per-processor private regions
	privStride  = 0x1000
)

// CriticalSection builds a program for processor p of nprocs that acquires
// a lock, increments a shared counter multiple times, and releases, for
// `rounds` rounds. With nlocks > 1, rounds rotate through different locks
// (reducing contention). The total over all processors of the counter
// increments is rounds*updates per processor, which tests use to verify
// mutual exclusion and coherence.
func CriticalSection(p, nprocs, rounds, updates, nlocks int) *isa.Program {
	b := isa.NewBuilder()
	for r := 0; r < rounds; r++ {
		lock := int64(lockBase + ((p+r)%nlocks)*0x10)
		counter := int64(counterBase + ((p+r)%nlocks)*0x10)
		b.Lock(isa.R1, lock)
		for u := 0; u < updates; u++ {
			b.LoadAbs(isa.R2, counter)
			b.AddI(isa.R2, isa.R2, 1)
			b.StoreAbs(isa.R2, counter)
		}
		b.Unlock(lock)
	}
	b.Halt()
	return b.Build()
}

// CounterAddr returns the shared counter address for lock index i.
func CounterAddr(i int) uint64 { return uint64(counterBase + i*0x10) }

// ProducerConsumer builds the paper's motivating pair: the producer fills
// `items` slots and sets a flag with a release store; the consumer spins on
// the flag with acquire loads and then reads all slots. Returns the two
// programs. The consumer accumulates the sum of the items into R10 and
// stores it to SumAddr so tests can check it.
func ProducerConsumer(items int) (producer, consumer *isa.Program) {
	pb := isa.NewBuilder()
	for i := 0; i < items; i++ {
		pb.Li(isa.R2, int64(i+1))
		pb.StoreAbs(isa.R2, int64(arrayBase)+int64(i))
	}
	pb.Li(isa.R3, 1)
	pb.ReleaseStoreAbs(isa.R3, flagBase)
	pb.Halt()

	cb := isa.NewBuilder()
	spin := cb.FreshLabel("spin")
	cb.Label(spin)
	cb.AcquireLoadAbs(isa.R1, flagBase)
	cb.Beqz(isa.R1, spin)
	cb.Li(isa.R10, 0)
	for i := 0; i < items; i++ {
		cb.LoadAbs(isa.R2, int64(arrayBase)+int64(i))
		cb.Add(isa.R10, isa.R10, isa.R2)
	}
	cb.StoreAbs(isa.R10, SumAddr)
	cb.Halt()
	return pb.Build(), cb.Build()
}

// SumAddr is where the ProducerConsumer consumer deposits its checksum.
const SumAddr = 0x9000

// ArraySweep builds a program that walks a private array of n words,
// reading, transforming and writing back each element — a cache-friendly
// loop with no sharing. Used to measure pure pipelining behaviour.
func ArraySweep(p, n int) *isa.Program {
	base := int64(privBase + p*privStride)
	b := isa.NewBuilder()
	for i := 0; i < n; i++ {
		b.LoadAbs(isa.R1, base+int64(i))
		b.AddI(isa.R1, isa.R1, 3)
		b.StoreAbs(isa.R1, base+int64(i))
	}
	b.Halt()
	return b.Build()
}

// WideSharing builds the E16 scale-sweep program for processor p of
// nprocs: each round every processor reads `lines` widely shared lines
// (accumulating into R10), then the round's rotating writer bumps each of
// them — so every write invalidates up to nprocs-1 sharers, the 100+-sharer
// fan-out the paper-level scale question asks about. A short private stride
// between rounds keeps the pipeline busy while invalidations propagate.
// Lines are spaced 0x40 words apart so they stay distinct under any line
// size the experiments use.
func WideSharing(p, nprocs, lines, rounds int) *isa.Program {
	b := isa.NewBuilder()
	priv := int64(privBase + p*privStride)
	for r := 0; r < rounds; r++ {
		for i := 0; i < lines; i++ {
			b.LoadAbs(isa.R1, int64(arrayBase+i*0x40))
			b.Add(isa.R10, isa.R10, isa.R1)
		}
		if r%nprocs == p {
			for i := 0; i < lines; i++ {
				addr := int64(arrayBase + i*0x40)
				b.LoadAbs(isa.R2, addr)
				b.AddI(isa.R2, isa.R2, 1)
				b.StoreAbs(isa.R2, addr)
			}
		}
		for i := 0; i < 4; i++ {
			b.LoadAbs(isa.R3, priv+int64(i))
			b.AddI(isa.R3, isa.R3, 1)
			b.StoreAbs(isa.R3, priv+int64(i))
		}
	}
	b.StoreAbs(isa.R10, priv+8) // per-processor checksum, for debugging only
	b.Halt()
	return b.Build()
}

// MixOptions parameterizes RandomSharing.
type MixOptions struct {
	Ops          int     // memory operations to generate
	SharedWords  int     // size of the shared region
	PrivateWords int     // size of the per-processor private region
	ShareFrac    float64 // fraction of accesses to the shared region
	WriteFrac    float64 // fraction of accesses that are writes
	Sync         bool    // bracket shared bursts in lock/unlock (data-race-free)
	Locks        int     // number of distinct locks (1 = a single hot lock);
	// more locks mean less contention, the common case §5 argues for
	Seed int64
}

// DefaultMix returns the mix used by the equalization experiment: mostly
// private traffic with a synchronized shared fraction, the data-race-free
// style of program the paper argues is the common case (§5).
func DefaultMix(seed int64) MixOptions {
	return MixOptions{
		Ops:          400,
		SharedWords:  64,
		PrivateWords: 256,
		ShareFrac:    0.3,
		WriteFrac:    0.4,
		Sync:         true,
		Locks:        8,
		Seed:         seed,
	}
}

// EqualizationMix is the low-contention data-race-free mix for the
// §5 equalization experiment: the paper's argument assumes releases happen
// long before the next acquire of the same lock, so invalidated
// speculations are rare.
func EqualizationMix(seed int64) MixOptions {
	m := DefaultMix(seed)
	m.ShareFrac = 0.15
	m.Locks = 16
	return m
}

// RandomSharing builds a pseudo-random but deterministic workload for
// processor p: bursts of private computation interleaved with accesses to
// a shared region, optionally protected by a lock (making the program
// data-race-free). Different seeds give different access patterns.
func RandomSharing(p, nprocs int, o MixOptions) *isa.Program {
	rng := rand.New(rand.NewSource(o.Seed + int64(p)*7919))
	if o.Locks <= 0 {
		o.Locks = 1
	}
	b := isa.NewBuilder()
	priv := int64(privBase + p*privStride)
	inCS := false
	curLock := int64(lockBase)
	budget := 0
	for i := 0; i < o.Ops; i++ {
		shared := rng.Float64() < o.ShareFrac
		write := rng.Float64() < o.WriteFrac
		if shared && o.Sync && !inCS {
			curLock = int64(lockBase + rng.Intn(o.Locks)*0x10)
			b.Lock(isa.R1, curLock)
			inCS = true
			budget = 2 + rng.Intn(6) // accesses before releasing
		}
		var addr int64
		if shared {
			// Each lock guards its own partition of the shared region, so
			// synchronized runs are data-race-free: distinct critical
			// sections never touch the same shared words concurrently.
			part := int64(0)
			if o.Sync {
				part = (curLock - lockBase) / 0x10 * int64(o.SharedWords)
			}
			addr = int64(arrayBase) + part + int64(rng.Intn(o.SharedWords))
		} else {
			if inCS {
				// Leave the critical section before private bursts so locks
				// are not held across unrelated work.
				b.Unlock(curLock)
				inCS = false
			}
			addr = priv + int64(rng.Intn(o.PrivateWords))
		}
		if write {
			b.Li(isa.R2, int64(i+1))
			b.StoreAbs(isa.R2, addr)
		} else {
			b.LoadAbs(isa.R3, addr)
		}
		if inCS {
			budget--
			if budget <= 0 {
				b.Unlock(curLock)
				inCS = false
			}
		}
	}
	if inCS {
		b.Unlock(curLock)
	}
	b.Halt()
	return b.Build()
}

// FalseSharing builds a workload where each processor hammers a distinct
// word that shares a line with its neighbours' words (line size permitting),
// exercising footnote 2's conservative squashing.
func FalseSharing(p, writes int) *isa.Program {
	addr := int64(arrayBase) + int64(p) // consecutive words, same line
	b := isa.NewBuilder()
	for i := 0; i < writes; i++ {
		b.Li(isa.R1, int64(i))
		b.StoreAbs(isa.R1, addr)
		b.LoadAbs(isa.R2, addr)
	}
	b.Halt()
	return b.Build()
}

// SoftwarePrefetchSweep is the ArraySweep with compiler-style software
// prefetching (paper §6): each iteration issues an exclusive prefetch
// `dist` elements ahead, so lines are resident by the time the demand
// accesses arrive regardless of the hardware's instruction window.
func SoftwarePrefetchSweep(p, n, dist int) *isa.Program {
	base := int64(privBase + p*privStride)
	b := isa.NewBuilder()
	for i := 0; i < dist && i < n; i++ {
		b.PrefetchExAbs(base + int64(i))
	}
	for i := 0; i < n; i++ {
		if i+dist < n {
			b.PrefetchExAbs(base + int64(i+dist))
		}
		b.LoadAbs(isa.R1, base+int64(i))
		b.AddI(isa.R1, isa.R1, 3)
		b.StoreAbs(isa.R1, base+int64(i))
	}
	b.Halt()
	return b.Build()
}

// Barrier-related addresses.
const (
	BarrierCountAddr = 0xA000 // fetch-add arrival counter
	BarrierSenseAddr = 0xA010 // release-published phase sense
	PhaseSumBase     = 0xB000 // per-processor phase checksums
)

// BarrierPhases builds a program for processor p of nprocs that alternates
// private computation with sense-reversing barriers — the canonical
// bulk-synchronous pattern. Arrival uses an atomic fetch-add; the last
// arriver resets the counter and publishes the new sense with a release
// store; everyone else spins on the sense with acquire loads. Each phase
// also accumulates a checksum of the processor's private work into
// PhaseSumBase+p so tests can verify every phase ran exactly once.
func BarrierPhases(p, nprocs, phases, work int) *isa.Program {
	b := isa.NewBuilder()
	// Two register setups, per phase 4 instructions per word plus 11 of
	// barrier, and the checksum store and halt.
	b.Grow(2 + phases*(4*work+11) + 2)
	priv := int64(privBase + p*privStride)
	const (
		rSense = isa.R10 // local copy of the sense we are waiting to flip to
		rTick  = isa.R11 // arrival ticket from fetch-add
		rSum   = isa.R12 // running checksum
		rTmp   = isa.R1
		rObs   = isa.R13 // observed sense while spinning
	)
	b.Li(rSense, 0)
	b.Li(rSum, 0)
	for ph := 0; ph < phases; ph++ {
		// Private work: touch `work` words, accumulate.
		for w := 0; w < work; w++ {
			addr := priv + int64((ph*work+w)%0x200)
			b.LoadAbs(rTmp, addr)
			b.AddI(rTmp, rTmp, int64(ph+1))
			b.StoreAbs(rTmp, addr)
			b.Add(rSum, rSum, rTmp)
		}
		// Barrier arrival: ticket = fetch-add(count, 1).
		b.Li(rTmp, 1)
		b.RMW(isa.RMWFetchAdd, rTick, rTmp, isa.R0, BarrierCountAddr)
		// The expected sense after this barrier is ph+1.
		b.AddI(rSense, isa.R0, int64(ph+1))
		// Last arriver (ticket == nprocs-1): reset the counter, publish the
		// new sense with a release store. Others spin on the sense.
		last := b.FreshLabel("last")
		spin := b.FreshLabel("spin")
		out := b.FreshLabel("out")
		b.SltI(rTmp, rTick, int64(nprocs-1))
		b.Beqz(rTmp, last) // ticket >= nprocs-1 -> we are last
		b.Label(spin)
		b.AcquireLoadAbs(rObs, BarrierSenseAddr)
		b.Sub(rObs, rObs, rSense)
		b.Bnez(rObs, spin)
		b.Jmp(out)
		b.Label(last)
		b.StoreAbs(isa.R0, BarrierCountAddr) // reset arrivals
		b.ReleaseStoreAbs(rSense, BarrierSenseAddr)
		b.Label(out)
	}
	b.StoreAbs(rSum, PhaseSumBase+int64(p))
	b.Halt()
	return b.Build()
}
