package coherence

import "fmt"

// DebugBusy renders all busy or queued lines for diagnostics.
func (d *Directory) DebugBusy() []string {
	var out []string
	for a, l := range d.lines {
		if l.busy || len(l.waitQ) > 0 {
			out = append(out, fmt.Sprintf("line=%#x state=%v owner=%d ver=%d busy=%v recallTag=%d waitQ=%d",
				a, l.state, l.owner, l.ver, l.busy, l.recallTag, len(l.waitQ)))
		}
	}
	return out
}
