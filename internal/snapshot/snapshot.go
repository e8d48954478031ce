// Package snapshot persists machine snapshots. A snapshot is a fixed
// 32-byte header followed by the payload, the binary encoding of one
// sim.Machine (sim.Machine.AppendBinary; internal/sim/codec.go lists the
// fields). The header's integers are big-endian:
//
//	offset  size  field
//	     0    16  magic "mcmsim-snapshot\n"
//	    16     4  format version (sim.SnapshotVersion), uint32
//	    20     8  payload length in bytes, uint64
//	    28     4  CRC-32C (Castagnoli) of the payload, uint32
//	    32     n  payload
//
// Read refuses a foreign magic or another format version before it reads
// the payload, and a short or damaged payload before it decodes anything;
// Verify makes the same checks on bytes in memory without decoding. A
// snapshot may be taken between any two cycles, quiescent or not, and
// restoring it (sim.Restore) reproduces every later observable byte for
// byte; sim.Machine documents what it holds.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"mcmsim/internal/sim"
)

const (
	magic     = "mcmsim-snapshot\n"
	headerLen = 32
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Append appends the machine's whole snapshot, header and payload, to b.
// The payload is encoded once, straight into b.
func Append(b []byte, m *sim.Machine) ([]byte, error) {
	start := len(b)
	b = append(b, magic...)
	b = binary.BigEndian.AppendUint32(b, sim.SnapshotVersion)
	b = binary.BigEndian.AppendUint64(b, 0) // payload length, below
	b = binary.BigEndian.AppendUint32(b, 0) // payload checksum, below
	b, err := m.AppendBinary(b)
	if err != nil {
		return nil, err
	}
	payload := b[start+headerLen:]
	binary.BigEndian.PutUint64(b[start+20:], uint64(len(payload)))
	binary.BigEndian.PutUint32(b[start+28:], crc32.Checksum(payload, castagnoli))
	return b, nil
}

// Write encodes the machine to w.
func Write(w io.Writer, m *sim.Machine) error {
	b, err := Append(nil, m)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Read decodes a machine from r. It reads the header and exactly the
// payload length the header states; the payload buffer grows with the
// bytes that arrive, never up front from the stated length. Every
// failure wraps sim.ErrInvalidSnapshot.
func Read(r io.Reader) (*sim.Machine, error) {
	var h [headerLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return nil, invalid("header: %w", err)
	}
	n, sum, err := parseHeader(h[:])
	if err != nil {
		return nil, err
	}
	// A length past math.MaxInt64 turns negative here, and the limited
	// reader then yields nothing: the length check below refuses it.
	b, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, invalid("payload: %w", err)
	}
	if uint64(len(b)) != n {
		return nil, invalid("payload: %d of %d bytes", len(b), n)
	}
	if err := checkSum(b, sum); err != nil {
		return nil, err
	}
	var m sim.Machine
	if err := m.UnmarshalBinary(b); err != nil {
		return nil, err
	}
	return &m, nil
}

// Verify checks a whole snapshot in memory: the header, a payload of
// exactly the stated length, and its checksum. It decodes nothing and
// allocates only on failure, whose error wraps sim.ErrInvalidSnapshot. A
// snapshot that passes can still fail to decode or to restore, but only
// if it was written wrong, not if it was damaged on the way.
func Verify(b []byte) error {
	if len(b) < headerLen {
		return invalid("header: %d of %d bytes", len(b), headerLen)
	}
	n, sum, err := parseHeader(b[:headerLen])
	if err != nil {
		return err
	}
	if got := uint64(len(b) - headerLen); got != n {
		return invalid("payload of %d bytes, header states %d", got, n)
	}
	return checkSum(b[headerLen:], sum)
}

// parseHeader checks the magic and the format version and returns the
// stated payload length and checksum.
func parseHeader(h []byte) (n uint64, sum uint32, err error) {
	if string(h[:16]) != magic {
		return 0, 0, invalid("not a machine snapshot (no header; formats before 7 had none)")
	}
	if v := binary.BigEndian.Uint32(h[16:]); v != sim.SnapshotVersion {
		return 0, 0, invalid("format version %d, this build reads %d", v, sim.SnapshotVersion)
	}
	return binary.BigEndian.Uint64(h[20:]), binary.BigEndian.Uint32(h[28:]), nil
}

func checkSum(payload []byte, sum uint32) error {
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return invalid("payload checksum %08x, header states %08x", got, sum)
	}
	return nil
}

func invalid(format string, a ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{sim.ErrInvalidSnapshot}, a...)...)
}

// WriteFile encodes the machine to a file, replacing it atomically: the
// snapshot goes to a temporary file in the same directory, which is
// synced and then renamed over path. A reader, or a crash at any moment,
// finds either the old snapshot or the new one whole, never a file cut
// short; a crash leaves at most the temporary file of the interrupted
// write behind.
func WriteFile(path string, m *sim.Machine) error {
	b, err := Append(nil, m)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	// The mode os.Create gives under the usual umask, not CreateTemp's 0600.
	err = f.Chmod(0o644)
	if err == nil {
		_, err = f.Write(b)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// ReadFile decodes a machine from a file.
func ReadFile(path string) (*sim.Machine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
