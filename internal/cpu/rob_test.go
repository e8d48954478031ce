package cpu

import (
	"testing"

	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/memsys"
)

// TestROBPoolAndTagLookup drives MispredictingLoop, whose data-dependent
// branch mispredicts every other iteration, so squashes leave gaps in the
// buffer's ids. Every cycle the pool must stay within ROBSize entries in
// total, ids must strictly ascend, and the id lookup the LSU callbacks use
// must agree with a linear scan for every id around the buffer.
func TestROBPoolAndTagLookup(t *testing.T) {
	cfg := RealisticConfig()
	cfg.ROBSize = 16
	lsu := core.NewLSU(0, core.Config{}, nil, memsys.NewGeometry(1))
	p := New(0, cfg, MispredictingLoop(), lsu)
	mispredicts := 0
	for now := uint64(0); !p.Halted(); now++ {
		if now > 100000 {
			t.Fatal("program did not halt")
		}
		p.TickFrontend(now)
		p.TickExecute(now)
		p.TickRetire(now)
		n := len(p.rob)
		for e := p.free; e != nil; e = e.nextFree {
			n++
		}
		if n > cfg.ROBSize {
			t.Fatalf("cycle %d: %d entries allocated, ROBSize is %d", now, n, cfg.ROBSize)
		}
		if len(p.rob) == 0 {
			continue
		}
		for i := 1; i < len(p.rob); i++ {
			if p.rob[i].id <= p.rob[i-1].id {
				t.Fatalf("cycle %d: ids not ascending", now)
			}
		}
		lo, hi := p.rob[0].id, p.rob[len(p.rob)-1].id+2
		if lo >= 2 {
			lo -= 2
		}
		for id := lo; id <= hi; id++ {
			var want *robEntry
			for _, e := range p.rob {
				if e.id == id {
					want = e
				}
			}
			if got := p.entry(id); got != want {
				t.Fatalf("cycle %d: entry(%d) disagrees with a scan of the buffer", now, id)
			}
		}
		mispredicts = int(p.Stats.Counter("branches_mispredicted").Value())
	}
	if mispredicts < 50 {
		t.Errorf("only %d mispredictions; the test needs squash gaps", mispredicts)
	}
	if got, want := p.Reg(isa.R3), int64(100*4+100*1); got != want {
		t.Errorf("accumulator = %d, want %d", got, want)
	}
}
