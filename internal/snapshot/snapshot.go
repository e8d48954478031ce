// Package snapshot persists machine snapshots: a sim.Machine in a gob
// envelope that carries a magic string and sim.SnapshotVersion, so a
// reader rejects foreign or stale streams before it decodes the machine.
// A snapshot may be taken between any two cycles, quiescent or not, and
// restoring it (sim.Restore) reproduces every later observable byte for
// byte; sim.Machine documents what it holds.
package snapshot

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"mcmsim/internal/sim"
)

// magic guards against feeding arbitrary gob streams to Read.
const magic = "mcmsim-snapshot"

// envelope is the on-disk framing: magic and version first, so Read can
// reject foreign or stale streams before decoding the machine.
type envelope struct {
	Magic   string
	Version int
	Machine sim.Machine
}

// Write encodes the machine to w.
func Write(w io.Writer, m *sim.Machine) error {
	return gob.NewEncoder(w).Encode(envelope{Magic: magic, Version: sim.SnapshotVersion, Machine: *m})
}

// Read decodes a machine from r, validating the framing. Every failure
// wraps sim.ErrInvalidSnapshot.
func Read(r io.Reader) (*sim.Machine, error) {
	var e envelope
	if err := gob.NewDecoder(r).Decode(&e); err != nil {
		return nil, fmt.Errorf("%w: decode: %w", sim.ErrInvalidSnapshot, err)
	}
	if e.Magic != magic {
		return nil, fmt.Errorf("%w: not a machine snapshot (magic %q)", sim.ErrInvalidSnapshot, e.Magic)
	}
	if e.Version != sim.SnapshotVersion {
		return nil, fmt.Errorf("%w: format version %d, this build reads %d", sim.ErrInvalidSnapshot, e.Version, sim.SnapshotVersion)
	}
	return &e.Machine, nil
}

// WriteFile encodes the machine to a file.
func WriteFile(path string, m *sim.Machine) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := Write(bw, m); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile decodes a machine from a file.
func ReadFile(path string) (*sim.Machine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(bufio.NewReader(f))
}
