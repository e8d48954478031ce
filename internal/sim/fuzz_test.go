package sim_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"mcmsim/internal/coherence"
	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/network"
	"mcmsim/internal/sim"
	"mcmsim/internal/snapshot"
	"mcmsim/internal/stats"
	"mcmsim/internal/workload"
)

// fuzzSeedMachines are small machines captured mid-flight, so the seed
// snapshots carry reorder buffers, LSU entries, buffer rows, MSHRs,
// in-flight messages and histograms for the fuzzer to mutate.
func fuzzSeedMachines(t testing.TB) []*sim.Machine {
	t.Helper()
	var out []*sim.Machine
	add := func(cfg sim.Config, progs []*isa.Program, at uint64) {
		s := sim.New(cfg, progs)
		if _, err := s.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		m, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	cfg := sim.RealisticConfig()
	cfg.Procs = 2
	cfg.Model = core.SC
	cfg.Tech = core.Technique{Prefetch: true, SpecLoad: true, ReissueOpt: true, DetectSC: true}
	add(cfg, mixProgs(2, 7), 300)
	cfg = sim.PaperConfig()
	cfg.Procs = 4
	cfg.Model = core.RC
	cfg.Tech = core.Technique{SpecLoad: true, Revalidate: true}
	cfg.Topo = "mesh"
	progs := make([]*isa.Program, cfg.Procs)
	for p := range progs {
		progs[p] = workload.BarrierPhases(p, cfg.Procs, 2, 3)
	}
	add(cfg, progs, 150)
	return out
}

func encodeMachine(t testing.TB, m *sim.Machine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// gobPayload is a machine's gob encoding, the payload of its snapshot.
func gobPayload(t testing.TB, m *sim.Machine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frame puts payload behind a snapshot header of the given format
// version. It follows the layout internal/snapshot documents, not that
// package's code: the 16-byte magic, then big-endian the version
// (uint32), the payload length (uint64) and the payload's CRC-32C
// (uint32).
func frame(version uint32, payload []byte) []byte {
	b := []byte("mcmsim-snapshot\n")
	b = binary.BigEndian.AppendUint32(b, version)
	b = binary.BigEndian.AppendUint64(b, uint64(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(b, payload...)
}

// FuzzRestore feeds arbitrary bytes through snapshot.Read and sim.Restore,
// the path a checkpoint upload or a snapshot file takes, in two arms. The
// first reads the bytes as a whole snapshot, which tests the framing. The
// second puts the same bytes as a payload behind a valid header, so they
// get past the checksum, which refuses almost every mutated snapshot, and
// reach the gob decoder and Restore. Every input must come back as a
// machine or as an error wrapping sim.ErrInvalidSnapshot, never as a panic
// or a runaway allocation. The corpus holds each seed machine's payload
// and its whole snapshot.
func FuzzRestore(f *testing.F) {
	for _, m := range fuzzSeedMachines(f) {
		f.Add(gobPayload(f, m))
		f.Add(encodeMachine(f, m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := snapshot.Verify(data); err != nil && !errors.Is(err, sim.ErrInvalidSnapshot) {
			t.Fatalf("Verify error does not wrap ErrInvalidSnapshot: %v", err)
		}
		readRestore(t, data)
		framed := frame(sim.SnapshotVersion, data)
		if err := snapshot.Verify(framed); err != nil {
			t.Fatalf("Verify refused a valid header: %v", err)
		}
		readRestore(t, framed)
	})
}

// readRestore reads a snapshot and restores the machine it holds; every
// failure must wrap sim.ErrInvalidSnapshot.
func readRestore(t *testing.T, b []byte) {
	m, err := snapshot.Read(bytes.NewReader(b))
	if err != nil {
		if !errors.Is(err, sim.ErrInvalidSnapshot) {
			t.Fatalf("Read error does not wrap ErrInvalidSnapshot: %v", err)
		}
		return
	}
	if _, err := sim.Restore(m); err != nil && !errors.Is(err, sim.ErrInvalidSnapshot) {
		t.Fatalf("Restore error does not wrap ErrInvalidSnapshot: %v", err)
	}
}

// dirLine returns the seed machine's first directory line that keep
// accepts, failing the test when there is none.
func dirLine(t *testing.T, m *sim.Machine, keep func(*coherence.LineState) bool) *coherence.LineState {
	t.Helper()
	for d := range m.Dirs {
		for i := range m.Dirs[d].Lines {
			if l := &m.Dirs[d].Lines[i]; keep(l) {
				return l
			}
		}
	}
	t.Fatal("seed machine has no such directory line")
	return nil
}

// TestRestoreRejectsInvalidState breaks one invariant at a time in a valid
// mid-flight machine; Restore must refuse each with ErrInvalidSnapshot,
// and accept the unbroken machine.
func TestRestoreRejectsInvalidState(t *testing.T) {
	seed := fuzzSeedMachines(t)[0]
	fresh := func() *sim.Machine {
		m, err := snapshot.Read(bytes.NewReader(encodeMachine(t, seed)))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if _, err := sim.Restore(fresh()); err != nil {
		t.Fatalf("valid machine refused: %v", err)
	}
	if len(seed.Procs[0].CPU.ROB) < 2 {
		t.Fatal("seed machine has fewer than two reorder-buffer entries")
	}
	lsuHist := func(t *testing.T, m *sim.Machine) *stats.HistogramState {
		for _, p := range m.Procs {
			for i := range p.LSU.Stats.Histograms {
				if h := &p.LSU.Stats.Histograms[i]; len(h.Values) >= 2 {
					return h
				}
			}
		}
		t.Fatal("seed machine has no histogram with two buckets")
		return nil
	}
	for _, c := range []struct {
		name   string
		mutate func(t *testing.T, m *sim.Machine)
	}{
		{"rob ids descend", func(t *testing.T, m *sim.Machine) {
			rob := m.Procs[0].CPU.ROB
			rob[0].ID, rob[1].ID = rob[1].ID, rob[0].ID
		}},
		{"rob id at NextID", func(t *testing.T, m *sim.Machine) {
			rob := m.Procs[0].CPU.ROB
			m.Procs[0].CPU.NextID = rob[len(rob)-1].ID
		}},
		{"rob over ROBSize", func(t *testing.T, m *sim.Machine) {
			m.Config.CPU.ROBSize = len(m.Procs[0].CPU.ROB) - 1
		}},
		{"operand register out of range", func(t *testing.T, m *sim.Machine) {
			m.Procs[0].CPU.ROB[0].Src.Reg = isa.NumRegs
		}},
		{"histogram values unsorted", func(t *testing.T, m *sim.Machine) {
			h := lsuHist(t, m)
			h.Values[0], h.Values[1] = h.Values[1], h.Values[0]
		}},
		{"histogram empty bucket", func(t *testing.T, m *sim.Machine) {
			lsuHist(t, m).Counts[0] = 0
		}},
		{"histogram count overflow", func(t *testing.T, m *sim.Machine) {
			h := lsuHist(t, m)
			h.Counts[0], h.Counts[1] = math.MaxUint64/2+1, math.MaxUint64/2+1
		}},
		{"histogram shape", func(t *testing.T, m *sim.Machine) {
			h := lsuHist(t, m)
			h.Counts = h.Counts[:1]
		}},
		{"huge machine", func(t *testing.T, m *sim.Machine) {
			m.Config.Procs = 1 << 30
		}},
		{"huge cache", func(t *testing.T, m *sim.Machine) {
			m.Config.Cache.Sets = 1 << 40
		}},
		{"bad topology", func(t *testing.T, m *sim.Machine) {
			m.Config.Topo = "mesh:0x0"
		}},
		{"bad instruction", func(t *testing.T, m *sim.Machine) {
			m.Procs[0].Prog.Instrs[0].Dst = 200
		}},
		{"message to a missing node", func(t *testing.T, m *sim.Machine) {
			if len(m.Net.InFlight) == 0 {
				t.Fatal("seed machine has no message in flight")
			}
			m.Net.InFlight[0].Dst = network.NodeID(m.Config.Procs + 99)
		}},
		{"short cache line", func(t *testing.T, m *sim.Machine) {
			for _, set := range m.Caches[0].Sets {
				for i := range set {
					if len(set[i].Data) > 0 {
						set[i].Data = set[i].Data[:len(set[i].Data)-1]
						return
					}
				}
			}
			t.Fatal("seed machine has no resident cache line")
		}},
		{"sharer out of range", func(t *testing.T, m *sim.Machine) {
			for i := range m.Dirs[0].Lines {
				if l := &m.Dirs[0].Lines[i]; len(l.Sharers) > 0 {
					l.Sharers[0] = network.NodeID(m.Config.Procs)
					return
				}
			}
			t.Fatal("seed machine has no shared directory line")
		}},
		{"directory state unknown", func(t *testing.T, m *sim.Machine) {
			dirLine(t, m, func(l *coherence.LineState) bool { return true }).State = 3
		}},
		{"directory sharers unsorted", func(t *testing.T, m *sim.Machine) {
			l := dirLine(t, m, func(l *coherence.LineState) bool { return len(l.Sharers) > 0 })
			l.Sharers = append(l.Sharers, l.Sharers[0])
		}},
		{"directory busy without request", func(t *testing.T, m *sim.Machine) {
			l := dirLine(t, m, func(l *coherence.LineState) bool { return !l.Busy })
			l.Busy = true
		}},
		{"directory exclusive without owner", func(t *testing.T, m *sim.Machine) {
			dirLine(t, m, func(l *coherence.LineState) bool { return l.Owner >= 0 }).Owner = -1
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := fresh()
			c.mutate(t, m)
			if _, err := sim.Restore(m); !errors.Is(err, sim.ErrInvalidSnapshot) {
				t.Errorf("Restore = %v, want an ErrInvalidSnapshot error", err)
			}
		})
	}
}
