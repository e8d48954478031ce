package sim_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"

	"mcmsim/internal/sim"
	"mcmsim/internal/snapshot"
)

// TestCodecComplete fills every field reachable from sim.Machine with a
// value of its own (non-zero numbers, true, slices of one to three
// elements, non-nil pointers) and requires the machine to come back from
// an encode and a decode unchanged. A field the codec does not list
// decodes as zero, or shifts the fields after it, and fails here.
func TestCodecComplete(t *testing.T) {
	var m sim.Machine
	var n int
	fill(t, reflect.ValueOf(&m).Elem(), &n)
	var got sim.Machine
	if err := got.UnmarshalBinary(machinePayload(t, &m)); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if path := firstDiff(reflect.ValueOf(m), reflect.ValueOf(got), "Machine"); path != "" {
		t.Errorf("%s does not survive an encode and a decode", path)
	}
}

// fill sets v and everything it reaches, numbering the values from *n so
// that no two fields hold the same one.
func fill(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(-int64(*n) * 1001) // negative: exercises the zigzag encoding
	case reflect.Uint8:
		v.SetUint(uint64(*n%255 + 1))
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n) * 1_000_003)
	case reflect.String:
		v.SetString(fmt.Sprintf("field %d", *n))
	case reflect.Struct:
		for i := range v.NumField() {
			fill(t, v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), *n%3+1, *n%3+1))
		for i := range v.Len() {
			fill(t, v.Index(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	default:
		t.Fatalf("fill: a %v field; teach fill and the codec its kind", v.Type())
	}
}

// firstDiff names the first place where a and b differ, or returns "".
func firstDiff(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := range a.NumField() {
			if d := firstDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (length %d, decoded %d)", path, a.Len(), b.Len())
		}
		for i := range a.Len() {
			if d := firstDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + " (nil on one side)"
			}
			return ""
		}
		return firstDiff(a.Elem(), b.Elem(), path)
	}
	if !reflect.DeepEqual(a.Interface(), b.Interface()) {
		return fmt.Sprintf("%s (%v, decoded %v)", path, a, b)
	}
	return ""
}

// TestCodecRefuses feeds the payload decoder inputs a damaged or hostile
// payload holds: every prefix of a valid one, a length of 2^62 with ten
// bytes behind it, a trailing byte and a bool byte of 2. Each must be
// refused with sim.ErrInvalidSnapshot, without a panic, and the length
// claim without allocating for it.
func TestCodecRefuses(t *testing.T) {
	m := tinyMachine(t)
	payload := machinePayload(t, m)
	// at is the offset of the first byte that set changes in the payload.
	at := func(set func(*sim.Machine)) int {
		c := *m
		set(&c)
		b := machinePayload(t, &c)
		for i := range min(len(b), len(payload)) {
			if b[i] != payload[i] {
				return i
			}
		}
		t.Fatal("the change left the payload's common prefix as it was")
		return 0
	}
	type input struct {
		name string
		b    []byte
	}
	var bad []input
	for n := range len(payload) {
		bad = append(bad, input{fmt.Sprintf("%d-byte prefix", n), payload[:n]})
	}
	bad = append(bad, input{"trailing byte", append(bytes.Clone(payload), 0)})
	boolByte := bytes.Clone(payload)
	boolByte[at(func(m *sim.Machine) { m.Config.NST = true })] = 2
	bad = append(bad, input{"bool byte 2", boolByte})
	lenAt := at(func(m *sim.Machine) { m.Config.UncachedRMW = []uint64{1} })
	claim := binary.AppendUvarint(bytes.Clone(payload[:lenAt]), 1<<62)
	claim = append(claim, make([]byte, 10)...)
	bad = append(bad, input{"2^62 elements claimed, 10 bytes sent", claim})
	for _, in := range bad {
		var got sim.Machine
		if err := got.UnmarshalBinary(in.b); !errors.Is(err, sim.ErrInvalidSnapshot) {
			t.Errorf("%s: UnmarshalBinary = %v, want an ErrInvalidSnapshot error", in.name, err)
		}
		if _, err := snapshot.Read(bytes.NewReader(frame(sim.SnapshotVersion, in.b))); !errors.Is(err, sim.ErrInvalidSnapshot) {
			t.Errorf("%s: Read = %v, want an ErrInvalidSnapshot error", in.name, err)
		}
	}
	const reads = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reads {
		var got sim.Machine
		got.UnmarshalBinary(claim)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reads; per > 1<<20 {
		t.Errorf("decoding a %d-byte payload that claims 2^62 elements allocates %d bytes", len(claim), per)
	}
}

// TestSnapshotFormatPinned holds the payload layout to a committed
// snapshot of the running format, testdata/format<SnapshotVersion>.snap:
// decoding it and encoding it again must reproduce the file byte for
// byte, and Restore must accept it. A change to the layout fails here
// until it bumps sim.SnapshotVersion and commits the new format's file,
// made with
//
//	go run ./cmd/mcsim -workload barrier -procs 2 -realistic -model RC \
//	    -prefetch -spec -detect-sc -topo mesh -stop-at 200 \
//	    -save-state internal/sim/testdata/format8.snap
//
// (a machine cut mid-flight: in-flight messages, reorder buffers,
// load/store entries, speculative-load and monitor rows, MSHRs and
// histograms).
func TestSnapshotFormatPinned(t *testing.T) {
	path := fmt.Sprintf("testdata/format%d.snap", sim.SnapshotVersion)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := snapshot.Read(bytes.NewReader(file))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if again := encodeMachine(t, m); !bytes.Equal(again, file) {
		t.Errorf("%s decodes and encodes again to other bytes (%d, file %d): the layout changed without a version bump", path, len(again), len(file))
	}
	// A codec that swapped two fields of one type would still reproduce
	// the bytes; what the recipe fixes anchors a few values.
	if m.Cycle != 200 || len(m.Procs) != 2 || m.Config.Procs != 2 || m.Config.Topo != "mesh:2x1" {
		t.Errorf("%s decodes to cycle %d, %d processors (config %d), topology %q; the recipe made cycle 200, 2, mesh:2x1",
			path, m.Cycle, len(m.Procs), m.Config.Procs, m.Config.Topo)
	}
	if _, err := sim.Restore(m); err != nil {
		t.Errorf("%s: %v", path, err)
	}
}
