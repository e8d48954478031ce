package sim

import (
	"encoding/binary"
	"fmt"

	"mcmsim/internal/cache"
	"mcmsim/internal/coherence"
	"mcmsim/internal/core"
	"mcmsim/internal/cpu"
	"mcmsim/internal/isa"
	"mcmsim/internal/memsys"
	"mcmsim/internal/network"
	"mcmsim/internal/stats"
)

// This file is the snapshot payload of format 8, a binary encoding of
// Machine written by hand. Each state type has one method that lists its
// fields in declaration order, and the same method serves both
// directions: a codec that encodes appends each field to its buffer, and
// one that decodes reads each field back. The encoder and the decoder
// cannot drift apart. A field added to a state type without a line here
// fails TestCodecComplete.
//
// The primitives:
//
//	unsigned integer             uvarint
//	signed integer, int, NodeID  zigzag varint
//	uint8, uint8-based enum      one byte
//	bool                         one byte, 0 or 1
//	string, slice                uvarint length, then the bytes or elements
//	*network.MessageState        presence bool, then the message if present

// AppendBinary appends the machine's snapshot payload to b. It implements
// encoding.BinaryAppender and never fails.
func (m *Machine) AppendBinary(b []byte) ([]byte, error) {
	c := codec{b: b}
	c.machine(m)
	return c.b, nil
}

// UnmarshalBinary replaces m with the machine the payload b encodes. It
// implements encoding.BinaryUnmarshaler. The payload must hold exactly one
// machine: a short or malformed payload, or one with bytes left over, is
// refused with an error wrapping ErrInvalidSnapshot, and m is left as it
// was. The decoded machine shares no memory with b, and an empty slice
// decodes as nil. Whether the machine is one Restore can build is Restore's
// question.
func (m *Machine) UnmarshalBinary(b []byte) error {
	c := codec{b: b, dec: true}
	var d Machine
	c.machine(&d)
	if c.err == nil && c.off < len(b) {
		c.fail("%d trailing bytes", len(b)-c.off)
	}
	if c.err != nil {
		return fmt.Errorf("%w: payload: %w", ErrInvalidSnapshot, c.err)
	}
	*m = d
	return nil
}

// codec appends fields to b (dec false) or reads them from b[off:] (dec
// true). Decoding trusts nothing: a length may not exceed the bytes left,
// and every element and string byte takes at least one byte of input, so
// a slice reserves at most that many elements (and at most maxPrealloc
// before they arrive), grows past that with the elements actually
// decoded, and an L-byte payload allocates O(L). The first failure ends
// the decode: it is kept in err, and every later read finds no bytes.
type codec struct {
	b   []byte
	off int
	dec bool
	err error
}

func (c *codec) fail(format string, a ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("offset %d: "+format, append([]any{c.off}, a...)...)
	}
	c.off = len(c.b)
}

func (c *codec) u64(p *uint64) {
	if c.dec {
		*p = c.uvarint()
		return
	}
	v := *p
	for ; v >= 0x80; v >>= 7 {
		c.b = append(c.b, byte(v)|0x80)
	}
	c.b = append(c.b, byte(v))
}

func (c *codec) uvarint() uint64 {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail("malformed uvarint")
		return 0
	}
	c.off += n
	return v
}

func (c *codec) i64(p *int64) {
	u := uint64(*p<<1) ^ uint64(*p>>63) // zigzag, as binary.PutVarint
	c.u64(&u)
	*p = int64(u>>1) ^ -int64(u&1)
}

func (c *codec) int(p *int) {
	v := int64(*p)
	c.i64(&v)
	*p = int(v)
}

func (c *codec) node(p *network.NodeID) { c.int((*int)(p)) }

func (c *codec) u8(p *uint8) {
	if c.dec {
		*p = c.byte()
		return
	}
	c.b = append(c.b, *p)
}

func (c *codec) byte() uint8 {
	if c.off == len(c.b) {
		c.fail("truncated")
		return 0
	}
	c.off++
	return c.b[c.off-1]
}

func (c *codec) bool(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	c.u8(&v)
	if v > 1 {
		c.fail("bool byte %d", v)
	}
	*p = v == 1
}

// len lists a length. Decoding, it refuses one larger than the bytes left.
func (c *codec) len(n int) int {
	v := uint64(n)
	c.u64(&v)
	if left := len(c.b) - c.off; c.dec && v > uint64(left) {
		c.fail("length %d exceeds the %d bytes left", v, left)
		return 0
	}
	return int(v)
}

func (c *codec) str(p *string) {
	n := c.len(len(*p))
	if !c.dec {
		c.b = append(c.b, *p...)
		return
	}
	*p = string(c.b[c.off : c.off+n])
	c.off += n
}

// maxPrealloc bounds the elements a decoded slice reserves before they
// arrive; a longer slice grows by append.
const maxPrealloc = 1024

// seq lists a slice: its length, then each element through f.
func seq[T any](c *codec, s *[]T, f func(*codec, *T)) {
	n := c.len(len(*s))
	if !c.dec {
		for i := range *s {
			f(c, &(*s)[i])
		}
		return
	}
	if n == 0 {
		*s = nil
		return
	}
	*s = make([]T, 0, min(n, maxPrealloc))
	var zero T
	for i := 0; i < n && c.err == nil; i++ {
		*s = append(*s, zero)
		f(c, &(*s)[i])
	}
}

func (c *codec) machine(x *Machine) {
	c.config(&x.Config)
	c.u64(&x.Cycle)
	c.u64(&x.BaseCycle)
	c.u64(&x.FastForwarded)
	c.net(&x.Net)
	c.mem(&x.Mem)
	seq(c, &x.Dirs, (*codec).dir)
	seq(c, &x.Caches, (*codec).cache)
	seq(c, &x.Procs, (*codec).proc)
	seq(c, &x.PendingWrites, (*codec).scheduledWrite)
	c.int(&x.AgentOutstanding)
}

func (c *codec) config(x *Config) {
	c.int(&x.Procs)
	c.u8((*uint8)(&x.Model))
	c.bool(&x.Tech.Prefetch)
	c.bool(&x.Tech.SpecLoad)
	c.bool(&x.Tech.ReissueOpt)
	c.bool(&x.Tech.AdveHill)
	c.bool(&x.Tech.Revalidate)
	c.bool(&x.Tech.DetectSC)
	c.u8((*uint8)(&x.Protocol))
	c.u64(&x.LineWords)
	c.u64(&x.NetLatency)
	c.u64(&x.MemLatency)
	c.str(&x.Topo)
	c.u64(&x.HopLatency)
	c.u64(&x.LinkGap)
	c.int(&x.DirPointers)
	c.int(&x.Cache.Sets)
	c.int(&x.Cache.Ways)
	c.int(&x.Cache.MaxMSHRs)
	c.u64(&x.Cache.HitLatency)
	c.int(&x.CPU.FetchWidth)
	c.int(&x.CPU.RetireWidth)
	c.int(&x.CPU.ROBSize)
	c.u64(&x.CPU.ALULatency)
	c.u64(&x.CPU.BranchLatency)
	c.u64(&x.CPU.MispredictPenalty)
	c.u64(&x.CPU.RollbackPenalty)
	c.bool(&x.NST)
	seq(c, &x.UncachedRMW, (*codec).u64)
	c.int(&x.MemModules)
	c.int(&x.DirBandwidth)
	c.u64(&x.MaxCycles)
	c.bool(&x.DenseLoop)
}

func (c *codec) net(x *network.State) {
	c.u64(&x.NextSeq)
	c.u64(&x.MessagesSent)
	seq(c, &x.Hops, (*codec).u64)
	seq(c, &x.Topo, (*codec).u64)
	seq(c, &x.InFlight, (*codec).msg)
}

func (c *codec) msg(x *network.MessageState) {
	c.u8((*uint8)(&x.Type))
	c.node(&x.Src)
	c.node(&x.Dst)
	c.u64(&x.Line)
	c.u64(&x.Word)
	seq(c, &x.Data, (*codec).i64)
	c.i64(&x.Value)
	c.int(&x.AckCount)
	c.node(&x.Requester)
	c.u64(&x.SeqNo)
	c.u64(&x.Tag)
	c.u64(&x.Seq)
	c.u64(&x.Deliver)
}

func (c *codec) mem(x *memsys.State) {
	seq(c, &x.Banks, func(c *codec, b *memsys.BankState) {
		seq(c, &b.Words, func(c *codec, w *memsys.WordState) {
			c.u64(&w.Addr)
			c.i64(&w.Value)
		})
	})
}

func (c *codec) dir(x *coherence.State) {
	seq(c, &x.Lines, func(c *codec, l *coherence.LineState) {
		c.u64(&l.Addr)
		c.u8(&l.State)
		seq(c, &l.Sharers, (*codec).node)
		c.node(&l.Owner)
		c.u64(&l.Ver)
		c.u64(&l.Coarse)
		c.bool(&l.Busy)
		c.u64(&l.RecallTag)
		present := l.PendingReq != nil
		if c.bool(&present); present {
			if c.dec {
				l.PendingReq = new(network.MessageState)
			}
			c.msg(l.PendingReq)
		}
		seq(c, &l.WaitQ, (*codec).msg)
	})
	c.stats(&x.Stats)
	seq(c, &x.Ingress, (*codec).msg)
}

func (c *codec) cache(x *cache.SavedState) {
	seq(c, &x.Sets, func(c *codec, set *[]cache.LineState) {
		seq(c, set, func(c *codec, l *cache.LineState) {
			c.u64(&l.Addr)
			c.u8(&l.State)
			seq(c, &l.Data, (*codec).i64)
			c.u64(&l.GrantVer)
			c.u64(&l.LastUse)
		})
	})
	c.u64(&x.UseClock)
	seq(c, &x.AckPool, func(c *codec, a *cache.AckPoolState) {
		c.u64(&a.LineAddr)
		c.u64(&a.Tag)
		c.int(&a.Count)
	})
	c.stats(&x.Stats)
	seq(c, &x.MSHRs, func(c *codec, m *cache.MSHRState) {
		c.u64(&m.LineAddr)
		c.bool(&m.Exclusive)
		seq(c, &m.Waiters, (*codec).request)
		seq(c, &m.Deferred, func(c *codec, d *cache.DeferredEventState) {
			c.u8((*uint8)(&d.Type))
			c.u64(&d.Tag)
			c.u64(&d.Word)
			c.i64(&d.Value)
			c.node(&d.Requester)
		})
		c.bool(&m.DataArrived)
		seq(c, &m.Data, (*codec).i64)
		c.u64(&m.GrantVer)
		c.int(&m.AcksNeeded)
		c.int(&m.AcksGot)
		c.bool(&m.AckKnown)
		c.bool(&m.Escalate)
	})
	seq(c, &x.RetryInstalls, (*codec).u64)
	seq(c, &x.Completions, func(c *codec, p *cache.CompletionState) {
		c.u64(&p.At)
		c.request(&p.Req)
	})
	seq(c, &x.Writebacks, func(c *codec, w *cache.WritebackState) {
		c.u64(&w.LineAddr)
		seq(c, &w.Data, (*codec).i64)
	})
	seq(c, &x.Xacts, func(c *codec, u *cache.UpdateXactState) {
		c.request(&u.Req)
		c.u64(&u.Word)
		c.u64(&u.DirTag)
		c.int(&u.AcksNeeded)
		c.int(&u.AcksGot)
		c.bool(&u.DoneSeen)
		c.i64(&u.OldValue)
	})
	seq(c, &x.Pinned, func(c *codec, p *cache.PinState) {
		c.u64(&p.LineAddr)
		c.int(&p.Count)
	})
	c.int(&x.NSTOutstanding)
}

func (c *codec) request(x *cache.Request) {
	c.u8((*uint8)(&x.Kind))
	c.u64(&x.ID)
	c.u64(&x.Addr)
	c.i64(&x.Data)
	c.u8((*uint8)(&x.RMW))
}

func (c *codec) stats(x *stats.State) {
	seq(c, &x.Counters, func(c *codec, s *stats.CounterState) {
		c.str(&s.Name)
		c.u64(&s.Value)
	})
	seq(c, &x.Histograms, func(c *codec, h *stats.HistogramState) {
		c.str(&h.Name)
		seq(c, &h.Values, (*codec).i64)
		seq(c, &h.Counts, (*codec).u64)
	})
}

func (c *codec) proc(x *ProcState) {
	c.program(&x.Prog)
	c.cpu(&x.CPU)
	c.lsu(&x.LSU)
}

func (c *codec) program(x *ProgramState) {
	seq(c, &x.Instrs, func(c *codec, in *isa.Instruction) {
		c.u8((*uint8)(&in.Op))
		c.u8((*uint8)(&in.Dst))
		c.u8((*uint8)(&in.Src))
		c.u8((*uint8)(&in.Src2))
		c.u8((*uint8)(&in.Base))
		c.i64(&in.Imm)
		c.u8((*uint8)(&in.RMW))
	})
	seq(c, &x.Labels, (*codec).label)
}

func (c *codec) label(x *Label) {
	c.str(&x.Name)
	c.int(&x.Target)
}

func (c *codec) cpu(x *cpu.State) {
	c.int(&x.PC)
	c.u64(&x.FetchResumeAt)
	c.bool(&x.HaltFetched)
	c.bool(&x.Halted)
	c.u64(&x.HaltCycle)
	c.u64(&x.NextID)
	seq(c, &x.Regfile, (*codec).i64)
	seq(c, &x.ROB, func(c *codec, e *cpu.ROBEntryState) {
		c.u64(&e.ID)
		c.int(&e.PC)
		c.operand(&e.Src)
		c.operand(&e.Src2)
		c.bool(&e.IsMem)
		c.bool(&e.Executed)
		c.u64(&e.ExecAt)
		c.bool(&e.ExecSet)
		c.i64(&e.Value)
		c.bool(&e.Complete)
		c.bool(&e.BaseSent)
		c.bool(&e.DataSent)
		c.bool(&e.StoreSignaled)
		c.bool(&e.PredTaken)
		c.int(&e.PredTarget)
	})
	seq(c, &x.Predictor, func(c *codec, p *cpu.PredictorState) {
		c.int(&p.PC)
		c.u8(&p.Counter)
	})
	c.stats(&x.Stats)
}

func (c *codec) operand(x *cpu.OperandState) {
	c.bool(&x.Ready)
	c.i64(&x.Value)
	c.u64(&x.Producer)
	c.u8((*uint8)(&x.Reg))
}

func (c *codec) lsu(x *core.LSUState) {
	c.stats(&x.Stats)
	seq(c, &x.Entries, (*codec).entry)
	seq(c, &x.MonitorOrphans, (*codec).entry)
	seq(c, &x.RS, (*codec).u64)
	seq(c, &x.LoadQ, (*codec).u64)
	seq(c, &x.StoreBuf, (*codec).u64)
	seq(c, &x.SwpfQ, (*codec).u64)
	seq(c, &x.Spec, (*codec).specRow)
	seq(c, &x.Monitor, (*codec).specRow)
	seq(c, &x.IDs, func(c *codec, id *core.IDState) {
		c.u64(&id.ID)
		c.u64(&id.Seq)
		c.u8(&id.Role)
	})
	c.u64(&x.NextID)
	seq(c, &x.RevalSeq, (*codec).u64)
	seq(c, &x.Forwards, func(c *codec, f *core.ForwardState) {
		c.u64(&f.At)
		c.u64(&f.ID)
		c.i64(&f.Value)
	})
}

func (c *codec) entry(x *core.EntryState) {
	c.u64(&x.Seq)
	c.u8((*uint8)(&x.Class))
	c.u8((*uint8)(&x.RMW))
	c.i64(&x.Base)
	c.bool(&x.BaseReady)
	c.i64(&x.Imm)
	c.u64(&x.Addr)
	c.bool(&x.AddrReady)
	c.i64(&x.Data)
	c.bool(&x.DataReady)
	c.bool(&x.InStoreBuf)
	c.bool(&x.AtHead)
	c.bool(&x.Issued)
	c.u64(&x.IssuedAt)
	c.u64(&x.DispatchAt)
	c.bool(&x.Done)
	c.i64(&x.Value)
	c.bool(&x.SpecIssued)
	c.bool(&x.SpecDone)
	c.i64(&x.SpecValue)
	c.bool(&x.Prefetched)
	c.bool(&x.OwnershipOK)
	c.bool(&x.Forwarded)
	c.bool(&x.HasFwdFrom)
	c.u64(&x.FwdFromSeq)
	c.bool(&x.SquashedAfterIssue)
	c.bool(&x.Retired)
	c.u64(&x.DemandID)
	c.u64(&x.SpecID)
}

func (c *codec) specRow(x *core.SpecRowState) {
	c.u64(&x.Seq)
	c.bool(&x.Acq)
	c.bool(&x.HasStoreTag)
	c.u64(&x.StoreTagSeq)
	c.bool(&x.IsRMW)
	c.bool(&x.Suspect)
	c.bool(&x.RevalIssued)
	c.bool(&x.RevalOK)
}

func (c *codec) scheduledWrite(x *ScheduledWrite) {
	c.u64(&x.Cycle)
	c.u64(&x.Addr)
	c.i64(&x.Value)
}
