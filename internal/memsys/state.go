package memsys

import (
	"fmt"
	"sort"
)

// State is the serializable memory image: per bank, the non-zero words in
// ascending address order. The sparse zero-is-absent invariant of WriteWord
// makes this exact — restoring the listed words into empty banks reproduces
// the storage byte for byte — and the sorted order makes the encoding
// deterministic.
type State struct {
	Banks []BankState
}

// BankState is one storage bank's non-zero words.
type BankState struct {
	Words []WordState
}

// WordState is one stored word.
type WordState struct {
	Addr  uint64
	Value int64
}

// ExportState captures the memory image.
func (m *Memory) ExportState() State {
	st := State{Banks: make([]BankState, len(m.banks))}
	for i, b := range m.banks {
		var words []WordState
		for a, v := range b {
			words = append(words, WordState{Addr: a, Value: v})
		}
		sort.Slice(words, func(x, y int) bool { return words[x].Addr < words[y].Addr })
		st.Banks[i].Words = words
	}
	return st
}

// RestoreState replaces the memory contents with the exported image. The
// bank count must match the memory's interleaving (it is derived from the
// machine configuration, which the snapshot carries alongside).
func (m *Memory) RestoreState(st State) error {
	if len(st.Banks) != len(m.banks) {
		return fmt.Errorf("memsys: snapshot has %d banks, memory has %d", len(st.Banks), len(m.banks))
	}
	for i := range m.banks {
		bank := make(map[uint64]int64, len(st.Banks[i].Words))
		for _, w := range st.Banks[i].Words {
			bank[w.Addr] = w.Value
		}
		m.banks[i] = bank
	}
	return nil
}
