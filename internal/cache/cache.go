// Package cache implements the lockup-free (non-blocking) private cache of
// each simulated processor, in the style of Kroft's lockup-free organization
// that the paper requires for both of its techniques: multiple outstanding
// misses are tracked in MSHRs, later references merge with in-flight
// requests (in particular, a demand access merges with an earlier prefetch
// of the same line and completes as soon as the prefetch result returns),
// and coherence traffic is serviced while misses are pending.
//
// The cache is also the detection point for the speculative-load technique:
// every invalidation, update and replacement that removes or changes a line
// is reported to the cache's client (the load/store unit), which matches it
// against the speculative-load buffer.
package cache

import (
	"fmt"

	"mcmsim/internal/coherence"
	"mcmsim/internal/isa"
	"mcmsim/internal/memsys"
	"mcmsim/internal/network"
	"mcmsim/internal/stats"
)

// State is the local state of a cached line. Under MSI the paper's
// "valid exclusive" corresponds to Modified. Under MESI a line granted
// exclusively but never written sits in Exclusive: it is clean (memory is
// current), writable without a directory transaction (a store silently
// upgrades it to Modified), and evictable silently (no writeback, no
// replacement hint — the directory discovers the departure lazily).
type State uint8

// Line states.
const (
	Invalid State = iota
	Shared
	Modified
	Exclusive // MESI only: exclusive and clean
)

func (s State) String() string {
	switch s {
	case Shared:
		return "shared"
	case Modified:
		return "exclusive"
	case Exclusive:
		return "exclusive-clean"
	default:
		return "invalid"
	}
}

// writableState reports whether a store may perform against the resident
// copy without a directory transaction: Modified always, Exclusive under
// MESI (the state never arises under MSI). The write itself must move an
// Exclusive line to Modified.
func writableState(s State) bool { return s == Modified || s == Exclusive }

// ReqKind distinguishes the request types the load/store unit can issue.
type ReqKind uint8

// Request kinds.
const (
	ReqRead       ReqKind = iota // demand load
	ReqWrite                     // demand store
	ReqRMW                       // demand atomic read-modify-write
	ReqPrefetch                  // non-binding read prefetch (line -> Shared)
	ReqPrefetchEx                // non-binding read-exclusive prefetch (line -> Modified)
	ReqReadEx                    // binding read that acquires exclusive ownership
	// (the speculative read-exclusive part of an RMW,
	// paper Appendix A)
)

func (k ReqKind) String() string {
	switch k {
	case ReqRead:
		return "read"
	case ReqWrite:
		return "write"
	case ReqRMW:
		return "rmw"
	case ReqPrefetch:
		return "prefetch"
	case ReqPrefetchEx:
		return "prefetch-ex"
	case ReqReadEx:
		return "read-ex"
	default:
		return "req(?)"
	}
}

// Request is one cache access from the load/store unit.
type Request struct {
	Kind ReqKind
	ID   uint64 // access identifier echoed in AccessComplete
	Addr uint64 // word address
	Data int64  // store data / RMW operand
	RMW  isa.RMWKind
}

// Result describes how an access was handled at issue time.
type Result uint8

// Access results.
const (
	// Hit: the line is present with sufficient permission; completion is
	// scheduled HitLatency cycles later. Consumes the cache port.
	Hit Result = iota
	// Miss: an MSHR was allocated and a request sent to the directory.
	// Consumes the cache port.
	Miss
	// Merged: the access joined an in-flight MSHR (typically a prefetch)
	// and will complete when that fill returns. Does not consume the port:
	// the combining happens in the miss buffers ("the reference request is
	// combined with the prefetch request so that a duplicate request is not
	// sent out").
	Merged
	// PrefetchDropped: the prefetch found the line already present or
	// already being fetched and was discarded. Consumes the port (the
	// prefetch probed the cache).
	PrefetchDropped
	// Blocked: no MSHR is available; the issuer must retry later. Does not
	// consume the port.
	Blocked
)

// EventKind classifies coherence events reported to the client for the
// speculative-load buffer's detection mechanism (paper §4.2: invalidations,
// updates, and replacements are monitored).
type EventKind uint8

// Coherence events.
const (
	EvInvalidate EventKind = iota
	EvUpdate
	EvReplace
)

func (e EventKind) String() string {
	switch e {
	case EvInvalidate:
		return "invalidate"
	case EvUpdate:
		return "update"
	default:
		return "replace"
	}
}

// OwnershipListener is an optional extension of Client used by the
// Adve-Hill comparator (paper §6): it is told when exclusive ownership for
// a write arrives even though the write has not performed everywhere
// (invalidation acks are still outstanding).
type OwnershipListener interface {
	AccessOwnership(id uint64, now uint64)
}

// Client receives completion callbacks and coherence events. The load/store
// unit implements Client.
type Client interface {
	// AccessComplete reports that the access with the given ID performed.
	// For loads and RMWs, value is the bound return value.
	AccessComplete(id uint64, value int64, now uint64)
	// CoherenceEvent reports an invalidation, update or replacement of a
	// line so the speculative-load buffer can match addresses against it.
	CoherenceEvent(line uint64, kind EventKind, now uint64)
}

// Config holds cache geometry and timing.
type Config struct {
	Sets       int    // number of sets (power of two)
	Ways       int    // associativity
	MaxMSHRs   int    // maximum outstanding line fills
	HitLatency uint64 // cycles from issue to completion for a hit
}

// DefaultConfig returns a configuration large enough that the paper's
// examples never conflict-miss: 256 sets, 4 ways, 16 MSHRs, 1-cycle hits.
func DefaultConfig() Config {
	return Config{Sets: 256, Ways: 4, MaxMSHRs: 16, HitLatency: 1}
}

type line struct {
	addr     uint64 // line-aligned address
	state    State
	data     []int64
	grantVer uint64 // directory version of the grant that installed it
	lastUse  uint64 // for LRU
}

type waiter struct {
	req Request
}

type deferredEvent struct {
	typ       network.MsgType
	tag       uint64
	word      uint64
	value     int64
	requester network.NodeID
}

type mshr struct {
	lineAddr  uint64
	exclusive bool
	waiters   []waiter
	deferred  []deferredEvent

	dataArrived bool
	data        []int64
	grantVer    uint64
	acksNeeded  int
	acksGot     int
	ackKnown    bool // DataEx arrived, acksNeeded is valid

	escalate bool // a write merged into a shared fill: re-request exclusively
}

func (m *mshr) fillComplete() bool {
	return m.dataArrived && m.ackKnown && m.acksGot >= m.acksNeeded
}

type completion struct {
	at  uint64
	req Request
}

type wbEntry struct {
	data []int64
}

// updateXact tracks one outstanding write under the update protocol (or an
// agent-style direct write): it completes when the directory's UpdateDone
// and all sharer acks arrive.
type updateXact struct {
	req        Request
	word       uint64
	dirTag     uint64 // 0 until UpdateDone arrives
	acksNeeded int
	acksGot    int
	doneSeen   bool
	oldValue   int64
}

// Cache is one processor's private lockup-free cache.
type Cache struct {
	ID    network.NodeID
	DirID network.NodeID
	// homes, when non-nil, interleaves lines across several home nodes
	// (distributed memory); DirID is the fallback single home.
	homes  []network.NodeID
	net    network.Port
	geom   memsys.Geometry
	cfg    Config
	proto  coherence.Protocol
	client Client

	// setOf maps a set index to 1 + the set's position in setTab, or 0 for
	// a set no line was ever installed in; setTab grows as sets are first
	// filled. A cache thus costs 4 bytes per set plus the sets in use.
	setOf       []int32
	setTab      [][]*line
	mshrs       map[uint64]*mshr // by line address
	wb          map[uint64]*wbEntry
	completions []completion
	xacts       []*updateXact
	ackPool     map[ackKey]int
	useClock    uint64

	// pinned counts scheduled-but-unfinished hit completions per line;
	// pinned lines cannot be victimized (paper footnote 3: a replacement of
	// a line with an outstanding access must be delayed).
	pinned map[uint64]int
	// retryInstalls holds completed fills that found no victimizable way;
	// they retry each Tick.
	retryInstalls []*mshr

	// NST bypass mode (paper §6 Stenstrom comparator).
	bypass         bool
	nstOutstanding int

	Stats *stats.Set
	// Counters bumped per access, resolved once.
	readHits, writeHits, readMerges, writeMerges, misses     stats.CounterRef
	prefetchesIssued, prefetchDropped, mshrBlocked, wbStalls stats.CounterRef
}

type ackKey struct {
	lineAddr uint64
	tag      uint64
}

// New creates a cache attached to the network.
func New(id, dirID network.NodeID, net *network.Network, geom memsys.Geometry, cfg Config, proto coherence.Protocol, client Client) *Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("cache: sets must be a power of two, got %d", cfg.Sets))
	}
	if cfg.Ways <= 0 {
		panic("cache: ways must be positive")
	}
	c := &Cache{
		ID: id, DirID: dirID, net: net, geom: geom, cfg: cfg, proto: proto, client: client,
		setOf:   make([]int32, cfg.Sets),
		mshrs:   make(map[uint64]*mshr),
		wb:      make(map[uint64]*wbEntry),
		ackPool: make(map[ackKey]int),
		pinned:  make(map[uint64]int),
		Stats:   stats.NewSet(fmt.Sprintf("cache%d", id)),
	}
	c.readHits = c.Stats.Ref("read_hits")
	c.writeHits = c.Stats.Ref("write_hits")
	c.readMerges = c.Stats.Ref("read_merges")
	c.writeMerges = c.Stats.Ref("write_merges")
	c.misses = c.Stats.Ref("misses")
	c.prefetchesIssued = c.Stats.Ref("prefetches_issued")
	c.prefetchDropped = c.Stats.Ref("prefetch_dropped")
	c.mshrBlocked = c.Stats.Ref("mshr_blocked")
	c.wbStalls = c.Stats.Ref("wb_stalls")
	net.Attach(id, c)
	return c
}

func (c *Cache) setIndex(lineAddr uint64) int {
	return int((lineAddr / c.geom.LineWords) % uint64(c.cfg.Sets))
}

// set returns the ways of set idx, or nil if no line was ever installed
// there.
func (c *Cache) set(idx int) []*line {
	if k := c.setOf[idx]; k > 0 {
		return c.setTab[k-1]
	}
	return nil
}

// newSet allocates a set of n Invalid ways (the zero state) in one block.
func newSet(n int) []*line {
	set := make([]*line, n)
	ways := make([]line, n)
	for i := range set {
		set[i] = &ways[i]
	}
	return set
}

// lookup returns the resident line, or nil.
func (c *Cache) lookup(lineAddr uint64) *line {
	for _, l := range c.set(c.setIndex(lineAddr)) {
		if l.addr == lineAddr && l.state != Invalid {
			return l
		}
	}
	return nil
}

// Proto returns the coherence protocol the cache participates in.
func (c *Cache) Proto() coherence.Protocol { return c.proto }

// SetClient rebinds the completion/event listener; used when a fresh
// load/store unit is attached to a warmed cache between program phases.
func (c *Cache) SetClient(cl Client) { c.client = cl }

// SetHomes interleaves lines across several home directory nodes.
func (c *Cache) SetHomes(homes []network.NodeID) { c.homes = homes }

// SetPort rebinds the cache onto a different network port (a shard-private
// endpoint during a parallel run, the network itself after).
func (c *Cache) SetPort(p network.Port) { c.net = p }

// homeFor returns the home node for a line.
func (c *Cache) homeFor(lineAddr uint64) network.NodeID {
	if len(c.homes) == 0 {
		return c.DirID
	}
	return c.homes[(lineAddr/c.geom.LineWords)%uint64(len(c.homes))]
}

// StateOf returns the local state of the line containing addr, without side
// effects. The prefetcher uses it to discard useless prefetches.
func (c *Cache) StateOf(addr uint64) State {
	l := c.lookup(c.geom.LineOf(addr))
	if l == nil {
		return Invalid
	}
	return l.state
}

// HasMSHR reports whether a fill is outstanding for the line containing
// addr, and whether that fill is exclusive.
func (c *Cache) HasMSHR(addr uint64) (outstanding, exclusive bool) {
	m, ok := c.mshrs[c.geom.LineOf(addr)]
	if !ok {
		return false, false
	}
	return true, m.exclusive
}

// OutstandingFills reports the number of active MSHRs (used by the
// quiescence check and by tests).
func (c *Cache) OutstandingFills() int { return len(c.mshrs) }

// PendingWork reports whether the cache still has scheduled completions,
// outstanding fills, writebacks awaiting ack, or update transactions.
func (c *Cache) PendingWork() bool {
	return len(c.completions) > 0 || len(c.mshrs) > 0 || len(c.wb) > 0 ||
		len(c.xacts) > 0 || len(c.retryInstalls) > 0 || c.nstOutstanding > 0
}

// NextWake reports when the cache's own clock next matters: a stalled
// install retries every cycle (and counts the retry in its stats, so the
// dense loop must run), and a scheduled hit completion fires at its
// recorded cycle. MSHRs, writebacks and update transactions advance only on
// message arrival, which the simulator tracks via Network.NextDelivery.
func (c *Cache) NextWake(now uint64) (uint64, bool) {
	if len(c.retryInstalls) > 0 {
		return now, true
	}
	var wake uint64
	ok := false
	for _, comp := range c.completions {
		if comp.at <= now {
			return now, true
		}
		if !ok || comp.at < wake {
			wake, ok = comp.at, true
		}
	}
	return wake, ok
}
