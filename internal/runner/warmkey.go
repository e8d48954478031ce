package runner

import (
	"fmt"
	"sort"
	"strings"

	"mcmsim/internal/isa"
	"mcmsim/internal/sim"
)

// WarmupKey renders a deterministic, conservative fingerprint of a warmup
// declaration: the complete machine configuration the warmup runs under,
// the warmup programs, and the memory preload. Two declarations with equal
// keys simulate to identical quiescent machines, because the simulator is
// deterministic and the key covers every input New/Preload/Run consume.
// The key deliberately over-distinguishes — any difference between the
// resolved configs splits the key even if it could not affect the
// warmup — because a duplicate warmup only costs time, while a wrong share
// would corrupt the measurement.
func WarmupKey(cfg sim.Config, progs []*isa.Program, preload map[uint64]int64) string {
	var b strings.Builder
	// A resolved config prints deterministically (plain values, nested
	// plain structs, a sorted UncachedRMW). One that does not resolve
	// fails its build anyway.
	if r, err := cfg.Resolve(); err == nil {
		cfg = r
	}
	fmt.Fprintf(&b, "cfg:%+v\n", cfg)
	for i, p := range progs {
		fmt.Fprintf(&b, "prog%d:%v\n", i, p.Instrs)
	}
	addrs := make([]uint64, 0, len(preload))
	for a := range preload {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		fmt.Fprintf(&b, "pre:%d=%d\n", a, preload[a])
	}
	return b.String()
}
