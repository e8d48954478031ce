package cache

import (
	"fmt"

	"mcmsim/internal/network"
)

// Bypass mode implements the Stenström comparator of paper §6: the cache is
// disabled and every access is a sequenced request to the memory module.
// Ordering is guaranteed at the memory side (the next-sequence-number table
// of Stenström's scheme reduces, under this simulator's FIFO network and
// single home node, to in-order delivery), so the processor never stalls
// for consistency. The paper's criticism — "the major disadvantage is that
// caches are not allowed" — is exactly what the E7 experiment measures.

// EnableBypass switches the cache into cacheless NST mode. Must be called
// before any access.
func (c *Cache) EnableBypass() { c.bypass = true }

// BypassEnabled reports whether NST mode is active.
func (c *Cache) BypassEnabled() bool { return c.bypass }

// UncachedAccess performs one access directly at the memory module without
// caching the line — used for Appendix A's non-cached read-modify-write
// locations (and internally for every access in NST mode).
func (c *Cache) UncachedAccess(req Request, now uint64) Result {
	return c.bypassAccess(req, now)
}

// bypassAccess sends the request straight to the memory module. Every
// access costs a full memory round trip; the port still admits one request
// per cycle, and requests complete out of order only across processors.
func (c *Cache) bypassAccess(req Request, now uint64) Result {
	// The FIFO network plays the role of the next-sequence-number table:
	// requests arrive at the module in issue order, so no explicit sequence
	// numbers are needed. SeqNo carries only an atomic's 1+isa.RMWKind.
	var m network.Message
	home := c.homeFor(c.geom.LineOf(req.Addr))
	switch req.Kind {
	case ReqRead, ReqReadEx:
		m = network.Message{
			Type: network.MsgMemRead, Src: c.ID, Dst: home,
			Word: req.Addr, Tag: req.ID,
		}
	case ReqWrite:
		m = network.Message{
			Type: network.MsgMemWrite, Src: c.ID, Dst: home,
			Word: req.Addr, Value: req.Data, Tag: req.ID,
		}
	case ReqRMW:
		m = network.Message{
			Type: network.MsgMemWrite, Src: c.ID, Dst: home,
			Word: req.Addr, Value: req.Data, Tag: req.ID,
			SeqNo: uint64(req.RMW) + 1,
		}
	case ReqPrefetch, ReqPrefetchEx:
		// Nothing to prefetch into; drop.
		return PrefetchDropped
	default:
		panic(fmt.Sprintf("cache: bypass cannot handle %v", req.Kind))
	}
	c.net.Post(m, now)
	c.nstOutstanding++
	c.Stats.Counter("nst_requests").Inc()
	return Miss
}

// handleBypassResponse completes a sequenced memory access.
func (c *Cache) handleBypassResponse(m *network.Message, now uint64) {
	c.nstOutstanding--
	c.client.AccessComplete(m.Tag, m.Value, now)
}
