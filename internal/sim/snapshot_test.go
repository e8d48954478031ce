package sim_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mcmsim/internal/coherence"
	"mcmsim/internal/core"
	"mcmsim/internal/isa"
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
//     (the gob image is canonical: no map iteration order leaks in),
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

// TestSnapshotFileRoundTrip covers the file envelope (magic and version
// validation) used by mcsim -save-state/-load-state.
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

	if _, err := snapshot.Read(bytes.NewReader([]byte("not a snapshot at all"))); err == nil {
		t.Error("Read accepted garbage input")
	}
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

// TestSnapshotVersionMismatch pins the format-version gate: a snapshot
// stamped with a foreign version must be rejected with an error naming
// both versions, never misinterpreted.
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
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	// The envelope is gob: re-encode it with a bumped version by decoding
	// into the raw structure is not exposed, so patch the version byte via
	// the public API instead — write with a build that disagrees is what we
	// simulate by checking the error text contract on a crafted stream.
	for _, version := range []int{3, 4, snapshot.FormatVersion + 40} {
		stale := gobEnvelopeWithVersion(t, snap, version)
		_, err = snapshot.Read(bytes.NewReader(stale))
		if err == nil {
			t.Fatalf("Read accepted a snapshot of format version %d", version)
		}
		if !errors.Is(err, snapshot.ErrInvalid) {
			t.Errorf("version %d: error %q does not wrap snapshot.ErrInvalid", version, err)
		}
		want := fmt.Sprintf("format version %d, this build reads %d", version, snapshot.FormatVersion)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("version mismatch error %q does not name both versions (want %q)", err, want)
		}
	}
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

// gobEnvelopeWithVersion re-frames a machine under a different format
// version, simulating a snapshot written by another build of the tool.
func gobEnvelopeWithVersion(t *testing.T, m *snapshot.Machine, version int) []byte {
	t.Helper()
	var buf bytes.Buffer
	env := struct {
		Magic   string
		Version int
		Machine snapshot.Machine
	}{"mcmsim-snapshot", version, *m}
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
