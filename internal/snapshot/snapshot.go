// Package snapshot persists machine snapshots. A snapshot is a fixed
// 32-byte header followed by the payload, the gob encoding of one
// sim.Machine. The header's integers are big-endian:
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
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"mcmsim/internal/sim"
)

const (
	magic     = "mcmsim-snapshot\n"
	headerLen = 32
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Write encodes the machine to w. The payload is encoded once, into the
// buffer that then carries the header in front of it.
func Write(w io.Writer, m *sim.Machine) error {
	var buf bytes.Buffer
	buf.Write(make([]byte, headerLen))
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return err
	}
	b := buf.Bytes()
	payload := b[headerLen:]
	copy(b, magic)
	binary.BigEndian.PutUint32(b[16:], sim.SnapshotVersion)
	binary.BigEndian.PutUint64(b[20:], uint64(len(payload)))
	binary.BigEndian.PutUint32(b[28:], crc32.Checksum(payload, castagnoli))
	_, err := w.Write(b)
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
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&m); err != nil {
		return nil, invalid("decode: %w", err)
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

// WriteFile encodes the machine to a file.
func WriteFile(path string, m *sim.Machine) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, m); err != nil {
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
	return Read(f)
}
