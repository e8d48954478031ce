package sim_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mcmsim/internal/coherence"
	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/network"
	"mcmsim/internal/parsim"
	"mcmsim/internal/sim"
	"mcmsim/internal/snapshot"
	"mcmsim/internal/workload"
)

// snapTechniques extends the fast-forward grid with the Adve-Hill
// comparator, so the round trip covers every store-side path the
// experiments exercise.
var snapTechniques = []struct {
	name string
	tech core.Technique
}{
	{"conv", core.Technique{}},
	{"pf", core.Technique{Prefetch: true}},
	{"spec", core.Technique{SpecLoad: true, ReissueOpt: true}},
	{"pf+spec", core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}},
	{"advehill", core.Technique{AdveHill: true}},
}

// snapEngines are the execution engines a snapshot must be exact under:
// the dense every-cycle loop, the fast-forward scheduler, and the parallel
// shard engine at two worker counts.
var snapEngines = []struct {
	name  string
	dense bool
	par   int
}{
	{"dense", true, 1},
	{"ff", false, 1},
	{"par2", false, 2},
	{"par4", false, 4},
}

// TestSnapshotRoundTrip is the differential gate for machine snapshots:
// across the full model x technique grid under every execution engine, a
// machine serialized at quiescence and restored must be indistinguishable
// from the original for every subsequent observation. Concretely, for each
// configuration it checks that
//
//   - the snapshot survives an encode/decode/re-encode cycle byte-identically
//     (the encoding is canonical: no map iteration order leaks in),
//   - re-snapshotting the restored machine reproduces the original bytes
//     (restore loses nothing the snapshot captures), and
//   - loading a second program phase into the original and the restored
//     machine yields identical halt cycles, statistics reports and coherent
//     memory images (restore loses nothing the snapshot doesn't capture
//     either — transient state is provably empty at quiescence).
func TestSnapshotRoundTrip(t *testing.T) {
	t.Parallel()
	for _, eng := range snapEngines {
		for _, m := range core.AllModels {
			for _, tc := range snapTechniques {
				t.Run(fmt.Sprintf("%s/%v/%s", eng.name, m, tc.name), func(t *testing.T) {
					cfg := sim.RealisticConfig()
					cfg.Procs = 3
					cfg.Model = m
					cfg.Tech = tc.tech
					cfg.DenseLoop = eng.dense

					phase1, phase2 := mixProgs(3, 7), mixProgs(3, 11)
					s1 := sim.New(cfg, phase1)
					if _, err := parsim.Drive(s1, eng.par); err != nil {
						t.Fatalf("phase 1: %v", err)
					}
					snap, err := s1.Snapshot()
					if err != nil {
						t.Fatalf("snapshot: %v", err)
					}

					var buf1 bytes.Buffer
					if err := snapshot.Write(&buf1, snap); err != nil {
						t.Fatalf("encode: %v", err)
					}
					decoded, err := snapshot.Read(bytes.NewReader(buf1.Bytes()))
					if err != nil {
						t.Fatalf("decode: %v", err)
					}
					var buf2 bytes.Buffer
					if err := snapshot.Write(&buf2, decoded); err != nil {
						t.Fatalf("re-encode: %v", err)
					}
					if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
						t.Fatal("snapshot is not canonical: encode/decode/re-encode changed the bytes")
					}

					s2, err := sim.Restore(decoded)
					if err != nil {
						t.Fatalf("restore: %v", err)
					}
					// Snapshots do not record the loop flavor.
					s2.Cfg.DenseLoop = eng.dense
					resnap, err := s2.Snapshot()
					if err != nil {
						t.Fatalf("re-snapshot: %v", err)
					}
					var buf3 bytes.Buffer
					if err := snapshot.Write(&buf3, resnap); err != nil {
						t.Fatalf("re-encode restored: %v", err)
					}
					if !bytes.Equal(buf1.Bytes(), buf3.Bytes()) {
						t.Fatal("restored machine snapshots differently than the original")
					}

					run2 := func(s *sim.System) (uint64, string, map[uint64]int64) {
						s.LoadPrograms(phase2)
						cycles, err := parsim.Drive(s, eng.par)
						if err != nil {
							t.Fatalf("phase 2: %v", err)
						}
						return cycles, s.StatsReport(), s.CoherentSnapshot()
					}
					c1, stats1, mem1 := run2(s1)
					c2, stats2, mem2 := run2(s2)
					if c1 != c2 {
						t.Errorf("phase-2 halt cycle: original=%d restored=%d", c1, c2)
					}
					if stats1 != stats2 {
						t.Errorf("phase-2 stats reports differ:\n--- original ---\n%s--- restored ---\n%s", stats1, stats2)
					}
					if !reflect.DeepEqual(mem1, mem2) {
						t.Errorf("phase-2 memory images differ")
					}
				})
			}
		}
	}
}

// TestSnapshotFileRoundTrip covers the snapshot file mcsim -save-state
// writes and -load-state reads, and the damaged snapshots Read and Verify
// must refuse.
func TestSnapshotFileRoundTrip(t *testing.T) {
	cfg := sim.RealisticConfig()
	cfg.Procs = 3
	cfg.Model = core.SC
	s := sim.New(cfg, mixProgs(3, 7))
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/machine.snap"
	if err := snapshot.WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sim.Restore(loaded)
	if err != nil {
		t.Fatal(err)
	}
	s.LoadPrograms(mixProgs(3, 11))
	s2.LoadPrograms(mixProgs(3, 11))
	c1, err1 := s.Run()
	c2, err2 := s2.Run()
	if err1 != nil || err2 != nil {
		t.Fatalf("runs failed: %v / %v", err1, err2)
	}
	if c1 != c2 {
		t.Errorf("halt cycle after file round trip: original=%d restored=%d", c1, c2)
	}

	// Damaged snapshots: Read and Verify must each refuse every one with
	// sim.ErrInvalidSnapshot. Every prefix is a worker dying mid-upload or
	// a file cut short.
	tiny := encodeMachine(t, tinyMachine(t))
	type input struct {
		name string
		b    []byte
	}
	bad := []input{{"garbage", []byte("not a snapshot at all")}}
	for n := range len(tiny) {
		bad = append(bad, input{fmt.Sprintf("%d-byte prefix", n), tiny[:n]})
	}
	flipped := bytes.Clone(tiny)
	flipped[len(flipped)/2] ^= 0x10
	bad = append(bad, input{"flipped payload bit", flipped})
	claim := frame(sim.SnapshotVersion, make([]byte, 10))
	binary.BigEndian.PutUint64(claim[20:], 1<<62)
	bad = append(bad, input{"2^62 bytes claimed, 10 sent", claim})
	overflow := bytes.Clone(claim)
	binary.BigEndian.PutUint64(overflow[20:], math.MaxUint64)
	bad = append(bad, input{"2^64-1 bytes claimed, 10 sent", overflow})
	for _, in := range bad {
		if _, err := snapshot.Read(bytes.NewReader(in.b)); !errors.Is(err, sim.ErrInvalidSnapshot) {
			t.Errorf("%s: Read = %v, want an ErrInvalidSnapshot error", in.name, err)
		}
		if err := snapshot.Verify(in.b); !errors.Is(err, sim.ErrInvalidSnapshot) {
			t.Errorf("%s: Verify = %v, want an ErrInvalidSnapshot error", in.name, err)
		}
	}
	// The payload buffer grows with the bytes that arrive, not with the
	// length the header claims: Read of the 42-byte claim allocates its
	// first 512-byte read buffer, the reader, the header and the error,
	// 768 bytes in all; a buffer sized from the claim would be 2^62 bytes.
	const reads = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reads {
		snapshot.Read(bytes.NewReader(claim))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reads; per > 1<<10 {
		t.Errorf("Read of a %d-byte snapshot claiming 2^62 payload bytes allocates %d bytes", len(claim), per)
	}
}

// tinyMachine is a small valid machine: two halted processors on the
// paper machine.
func tinyMachine(t *testing.T) *sim.Machine {
	t.Helper()
	cfg := sim.PaperConfig()
	cfg.Procs = 2
	halt := isa.NewBuilder().Halt().Build()
	m, err := sim.New(cfg, []*isa.Program{halt, halt}).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSnapshotMidFlight is the mid-flight property test: interrupting a
// run at an arbitrary (pseudo-randomly chosen, non-quiescent) cycle,
// snapshotting, and restoring into a fresh machine must be invisible — the
// resumed run's halt cycle, final clock, statistics report and coherent
// memory image must equal the uninterrupted run's (itself equal to the
// dense loop's), whether the resumed machine runs to the end with Run or
// in RunCheckpointed slices, across network shape x coherence
// protocol, and the snapshot bytes themselves must be identical whether
// the interrupted run stepped every cycle or fast-forwarded (the scheduler
// clamps its idle jumps to the interruption target, so both stop in the
// same state). A re-snapshot of the restored machine must reproduce the
// original bytes: restore loses nothing mid-flight state included.
func TestSnapshotMidFlight(t *testing.T) {
	type shape struct {
		name  string
		cfg   sim.Config
		progs func() []*isa.Program
	}
	uniform := sim.RealisticConfig().WithMissLatency(100)
	uniform.Procs = 4
	uniform.Model = core.RC
	uniform.Tech = core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}
	mesh := meshConfig(16)
	mesh.Model = core.SC
	mesh.Tech = core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true}
	shapes := []shape{
		{"uniform", uniform, func() []*isa.Program { return mixProgs(4, 11) }},
		{"mesh", mesh, func() []*isa.Program { return wideProgs(16, 3, 3) }},
	}
	rng := rand.New(rand.NewSource(42))
	for _, sh := range shapes {
		for _, proto := range []struct {
			name string
			p    coherence.Protocol
		}{{"msi", coherence.ProtoInvalidate}, {"mesi", coherence.ProtoMESI}} {
			t.Run(sh.name+"/"+proto.name, func(t *testing.T) {
				cfg := sh.cfg
				cfg.Protocol = proto.p

				ref := sim.New(cfg, sh.progs())
				refHalt, err := ref.Run()
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}
				refStats, refMem, refEnd := ref.StatsReport(), ref.CoherentSnapshot(), ref.Cycle
				// sameEnd checks a resumed machine against the
				// uninterrupted run.
				sameEnd := func(how string, cut uint64, s *sim.System, halt uint64) {
					t.Helper()
					if halt != refHalt || s.Cycle != refEnd {
						t.Errorf("cut=%d %s: halt/clock resumed=(%d,%d) uninterrupted=(%d,%d)", cut, how, halt, s.Cycle, refHalt, refEnd)
					}
					if got := s.StatsReport(); got != refStats {
						t.Errorf("cut=%d %s: stats reports differ:\n--- resumed ---\n%s--- uninterrupted ---\n%s", cut, how, got, refStats)
					}
					if !reflect.DeepEqual(s.CoherentSnapshot(), refMem) {
						t.Errorf("cut=%d %s: coherent memory images differ", cut, how)
					}
				}
				dense := cfg
				dense.DenseLoop = true
				uncut := sim.New(dense, sh.progs())
				halt, err := uncut.Run()
				if err != nil {
					t.Fatalf("dense reference run: %v", err)
				}
				sameEnd("dense", 0, uncut, halt)

				for trial := 0; trial < 3; trial++ {
					span := refEnd - ref.BaseCycle()
					cut := ref.BaseCycle() + 1 + uint64(rng.Int63n(int64(span-1)))
					snapAt := func(dense bool) []byte {
						c := cfg
						c.DenseLoop = dense
						s := sim.New(c, sh.progs())
						done, err := s.RunUntil(cut)
						if err != nil {
							t.Fatalf("cut=%d: %v", cut, err)
						}
						if done {
							t.Fatalf("cut=%d: machine quiesced early (end=%d)", cut, refEnd)
						}
						if s.Cycle != cut {
							t.Fatalf("cut=%d: RunUntil stopped at %d", cut, s.Cycle)
						}
						snap, err := s.Snapshot()
						if err != nil {
							t.Fatalf("cut=%d: snapshot: %v", cut, err)
						}
						// The skipped-cycle diagnostic is the one field that
						// legitimately depends on the scheduler; normalize it so
						// the comparison covers everything else.
						snap.FastForwarded = 0
						var buf bytes.Buffer
						if err := snapshot.Write(&buf, snap); err != nil {
							t.Fatalf("cut=%d: encode: %v", cut, err)
						}
						return buf.Bytes()
					}
					ffBytes := snapAt(false)
					if denseBytes := snapAt(true); !bytes.Equal(ffBytes, denseBytes) {
						t.Fatalf("cut=%d: dense and fast-forward machines diverge at the cut", cut)
					}

					decoded, err := snapshot.Read(bytes.NewReader(ffBytes))
					if err != nil {
						t.Fatalf("cut=%d: decode: %v", cut, err)
					}
					restored, err := sim.Restore(decoded)
					if err != nil {
						t.Fatalf("cut=%d: restore: %v", cut, err)
					}
					resnap, err := restored.Snapshot()
					if err != nil {
						t.Fatalf("cut=%d: re-snapshot: %v", cut, err)
					}
					var buf2 bytes.Buffer
					if err := snapshot.Write(&buf2, resnap); err != nil {
						t.Fatalf("cut=%d: re-encode: %v", cut, err)
					}
					if !bytes.Equal(ffBytes, buf2.Bytes()) {
						t.Fatalf("cut=%d: restored machine snapshots differently than the original", cut)
					}

					halt, err := restored.Run()
					if err != nil {
						t.Fatalf("cut=%d: resumed run: %v", cut, err)
					}
					sameEnd("Run", cut, restored, halt)

					// A second copy resumes through checkpoint slices, as a
					// farm job does after its lease moves: each slice's
					// RunUntil re-derives the wake schedule from the state
					// the previous slice (or Restore) left.
					sliced, err := sim.Restore(decoded)
					if err != nil {
						t.Fatalf("cut=%d: restore: %v", cut, err)
					}
					saves := 0
					halt, err = sliced.RunCheckpointed(max((refEnd-cut)/4, 1), func(*sim.System) error {
						saves++
						return nil
					})
					if err != nil {
						t.Fatalf("cut=%d: checkpointed resume: %v", cut, err)
					}
					if saves == 0 {
						t.Errorf("cut=%d: checkpointed resume took no checkpoint", cut)
					}
					sameEnd("RunCheckpointed", cut, sliced, halt)
				}
			})
		}
	}
}

// TestSnapshotUncachedRMWMidFlight cuts TestUncachedRMWLocks's machine at
// the first cycle at which an atomic performed at the memory module is in
// flight. The snapshot, whose config carries the uncached word, must
// encode, decode and re-encode to the same bytes, and the restored run
// must end with the uncut run's statistics.
func TestSnapshotUncachedRMWMidFlight(t *testing.T) {
	const nprocs, rounds, updates = 3, 2, 2
	for _, tech := range []core.Technique{{}, {Prefetch: true, SpecLoad: true, ReissueOpt: true}} {
		t.Run(fmt.Sprint(tech), func(t *testing.T) {
			cfg := sim.RealisticConfig()
			cfg.Procs = nprocs
			cfg.Tech = tech
			cfg.UncachedRMW = []uint64{0x1000} // the lock word
			build := func() *sim.System {
				progs := make([]*isa.Program, nprocs)
				for p := range progs {
					progs[p] = workload.CriticalSection(p, nprocs, rounds, updates, 1)
				}
				return sim.New(cfg, progs)
			}
			uncut := build()
			if _, err := uncut.Run(); err != nil {
				t.Fatal(err)
			}

			s := build()
			var snap *sim.Machine
			for snap == nil {
				done, err := s.RunUntil(s.Cycle + 1)
				if err != nil || done {
					t.Fatalf("no atomic reached the memory module in flight (done=%v, err=%v)", done, err)
				}
				m, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if slices.ContainsFunc(m.Net.InFlight, func(ms network.MessageState) bool {
					return ms.Type == network.MsgMemWrite && ms.SeqNo != 0
				}) {
					snap = m
				}
			}
			var buf1, buf2 bytes.Buffer
			if err := snapshot.Write(&buf1, snap); err != nil {
				t.Fatal(err)
			}
			decoded, err := snapshot.Read(bytes.NewReader(buf1.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := snapshot.Write(&buf2, decoded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
				t.Fatalf("cycle %d: encode/decode/re-encode changed the bytes", snap.Cycle)
			}
			restored, err := sim.Restore(decoded)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := restored.Run(); err != nil {
				t.Fatal(err)
			}
			if got, want := restored.StatsReport(), uncut.StatsReport(); got != want {
				t.Errorf("cut at cycle %d: restored stats differ:\n--- uncut ---\n%s--- restored ---\n%s", snap.Cycle, want, got)
			}
			var uncached uint64
			for _, u := range restored.LSUs {
				uncached += u.Stats.Counter("uncached_rmws").Value()
			}
			if uncached == 0 {
				t.Error("no uncached RMWs performed")
			}
		})
	}
}

// TestSnapshotVersionMismatch pins the format-version gate. A header
// built from the documented layout in front of the machine's payload must
// reproduce snapshot.Write's bytes. The payload behind a header of another
// version must be refused with an error naming both versions, even when
// nothing follows the header: Read refuses it before it reads the payload.
// A format-7 snapshot (a gob payload behind a version-7 header) is one of
// them, and a format-6 snapshot, a gob envelope with no header, is refused
// too.
func TestSnapshotVersionMismatch(t *testing.T) {
	cfg := sim.RealisticConfig()
	cfg.Procs = 2
	s := sim.New(cfg, mixProgs(2, 7))
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	payload := machinePayload(t, snap)
	if !bytes.Equal(frame(sim.SnapshotVersion, payload), encodeMachine(t, snap)) {
		t.Fatal("a header built from the documented layout differs from snapshot.Write's")
	}
	headerLen := len(frame(sim.SnapshotVersion, nil))
	for _, version := range []uint32{3, 4, 5, 6, 7, sim.SnapshotVersion + 40} {
		stale := frame(version, payload)
		if version == 7 {
			stale = frame(7, gobPayload(t, snap))
		}
		want := fmt.Sprintf("format version %d, this build reads %d", version, sim.SnapshotVersion)
		for name, err := range map[string]error{
			"Read":             readErr(stale),
			"Read header only": readErr(stale[:headerLen]),
			"Verify":           snapshot.Verify(stale),
		} {
			if !errors.Is(err, sim.ErrInvalidSnapshot) {
				t.Errorf("version %d: %s = %v, want an ErrInvalidSnapshot error", version, name, err)
			} else if !strings.Contains(err.Error(), want) {
				t.Errorf("version %d: %s error %q does not name both versions (want %q)", version, name, err, want)
			}
		}
	}
	format6 := gobEnvelopeWithVersion(t, snap, 6)
	if err := readErr(format6); !errors.Is(err, sim.ErrInvalidSnapshot) {
		t.Errorf("format-6 snapshot: Read = %v, want an ErrInvalidSnapshot error", err)
	}
	if err := snapshot.Verify(format6); !errors.Is(err, sim.ErrInvalidSnapshot) {
		t.Errorf("format-6 snapshot: Verify = %v, want an ErrInvalidSnapshot error", err)
	}
}

func readErr(b []byte) error {
	_, err := snapshot.Read(bytes.NewReader(b))
	return err
}

// TestSnapshotBytesIndependentOfReports: identical machines encode to
// identical bytes even when a stats report was rendered from one of them
// first. Reading a histogram's order statistics must not reorder what the
// snapshot serializes.
func TestSnapshotBytesIndependentOfReports(t *testing.T) {
	encode := func(report bool) []byte {
		cfg := sim.PaperConfig()
		cfg.Procs = 2
		cfg.Model = core.WC
		s := sim.New(cfg, []*isa.Program{workload.Example1(), workload.Example1()})
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if report {
			_ = s.StatsReport()
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := snapshot.Write(&buf, snap); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain, reported := encode(false), encode(true)
	if !bytes.Equal(plain, reported) {
		t.Errorf("snapshot bytes differ after StatsReport (%d vs %d bytes)", len(plain), len(reported))
	}
}

// gobPayload is a machine's gob encoding, the payload of a format-7
// snapshot.
func gobPayload(t testing.TB, m *sim.Machine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// gobEnvelopeWithVersion frames a machine as formats 6 and older did: a
// gob envelope holding a magic string, the version and the machine.
func gobEnvelopeWithVersion(t *testing.T, m *sim.Machine, version int) []byte {
	t.Helper()
	var buf bytes.Buffer
	env := struct {
		Magic   string
		Version int
		Machine sim.Machine
	}{"mcmsim-snapshot", version, *m}
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
