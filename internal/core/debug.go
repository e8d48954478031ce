package core

import "fmt"

// DebugState renders the LSU's queues for diagnostics.
func (u *LSU) DebugState() string {
	s := fmt.Sprintf("entries=%d rs=%d loadQ=%d storeBuf=%d spec=%d\n", len(u.entries), len(u.rs), len(u.loadQ), len(u.storeBuf), len(u.spec))
	for i, e := range u.entries {
		if i > 12 {
			s += "  ...\n"
			break
		}
		s += fmt.Sprintf("  seq=%d %v addr=%#x addrRdy=%v dataRdy=%v atHead=%v issued=%v specIss=%v done=%v fwd=%v ret=%v\n",
			e.Seq, e.Class, e.Addr, e.AddrReady, e.dataReady, e.atHead, e.issued, e.specIssued, e.Done, e.forwarded, e.retired)
	}
	for i, sp := range u.spec {
		if i > 6 {
			s += "  ...\n"
			break
		}
		tag := int64(-1)
		if sp.storeTag != nil {
			tag = int64(sp.storeTag.Seq)
		}
		s += fmt.Sprintf("  spec[%d]: seq=%d acq=%v done=%v tag=%d rmw=%v\n", i, sp.e.Seq, sp.acq, sp.done(), tag, sp.isRMW)
	}
	return s
}
