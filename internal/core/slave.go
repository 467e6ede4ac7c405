package core

import (
	"fmt"

	"cenju4/internal/cache"
	"cenju4/internal/directory"
	"cenju4/internal/memory"
	"cenju4/internal/msg"
	"cenju4/internal/sim"
)

// slaveModule services forwarded requests and invalidations against the
// local cache. It has a small on-chip buffer; when more requests are
// waiting than it can hold, the excess is queued in a bounded
// memory-resident overflow region (64 KB at 1024 nodes: at most
// MaxOutstanding requests from each of N nodes), which is what breaks
// the slave's arc in the deadlock dependency graph without a second
// network.
type slaveModule struct {
	module
	c *Controller
	// backlog counts services admitted but not yet finished; entries
	// beyond the on-chip buffer conceptually live in main memory.
	backlog  int
	overflow *memory.Queue[struct{}]
}

func (s *slaveModule) init(c *Controller) {
	s.c = c
	cap := memory.RequestQueueCapacity(c.cfg.Nodes)
	if c.cfg.QueueCapOverride > 0 {
		cap = c.cfg.QueueCapOverride
	}
	s.overflow = memory.NewQueue[struct{}]("slave-overflow", cap, memory.OverflowQueueBits)
}

func (s *slaveModule) handle(m *msg.Message) {
	c := s.c
	now := c.eng.Now()
	p := c.params
	var elapsed sim.Time
	if s.busy > now {
		elapsed = s.busy - now
	}
	elapsed += p.SlaveProc

	s.backlog++
	spilled := false
	if s.backlog > c.cfg.ModuleBufEntries {
		// On-chip buffer full: this request detours through main memory.
		s.overflow.Push(struct{}{})
		spilled = true
		elapsed += 2 * p.QueueOp // write to and read back from memory
	}

	st := c.cache.State(m.Addr)
	reply := c.newMsg(msg.Message{
		Src:    c.cfg.Node,
		Dest:   directory.Single(m.Src),
		Addr:   m.Addr,
		Master: m.Master,
	})
	switch m.Kind {
	case msg.FwdReadShared:
		switch st {
		case cache.Modified:
			c.cache.SetState(m.Addr, cache.Shared)
			reply.Kind = msg.SlaveData
			reply.HasData = true
			if c.vals != nil {
				reply.Val = c.vals.CacheValue(c.cfg.Node, m.Addr)
			}
		case cache.Exclusive:
			c.cache.SetState(m.Addr, cache.Shared)
			reply.Kind = msg.SlaveAck
		case cache.Shared, cache.Invalid:
			// The dirty copy is gone (written back, or demoted in
			// flight): plain acknowledgement; memory already holds
			// valid data.
			reply.Kind = msg.SlaveAck
		}
	case msg.FwdReadExclusive:
		switch st {
		case cache.Modified:
			c.cache.SetState(m.Addr, cache.Invalid)
			reply.Kind = msg.SlaveData
			reply.HasData = true
			if c.vals != nil {
				reply.Val = c.vals.CacheValue(c.cfg.Node, m.Addr)
			}
		case cache.Exclusive, cache.Shared:
			// Clean copy: drop it; memory already holds valid data.
			c.cache.SetState(m.Addr, cache.Invalid)
			reply.Kind = msg.SlaveAck
		case cache.Invalid:
			// The copy vanished in flight (writeback or invalidation).
			reply.Kind = msg.SlaveAck
		}
	case msg.Invalidate:
		// A master upgrading its own shared copy appears in the node map;
		// it acknowledges without invalidating (the upgrade completes
		// when the home's grant arrives). Everyone else drops the copy.
		if m.Master != c.cfg.Node && st != cache.Invalid &&
			!(c.cfg.Faults != nil && c.cfg.Faults.SkipInvalidate) {
			c.cache.SetState(m.Addr, cache.Invalid)
		}
		reply.Kind = msg.InvAck
		reply.Gather = m.Gather
	case msg.UpdateData:
		// Update-protocol extension: deposit the new data in the local
		// third-level cache; a resident second-level copy is updated in
		// place and stays Shared.
		c.l3[m.Addr] = true
		if st == cache.Modified || st == cache.Exclusive {
			c.cache.SetState(m.Addr, cache.Shared)
		}
		if c.vals != nil {
			c.vals.l3Write(c.cfg.Node, m.Addr, m.Val)
			if c.cache.State(m.Addr) != cache.Invalid {
				c.vals.fill(c.cfg.Node, m.Addr, m.Val) // update in place
			}
		}
		elapsed += p.MemAccess // L3 write
		reply.Kind = msg.UpdateAck
		reply.Gather = m.Gather
	default:
		panic(fmt.Sprintf("core: slave received %v", m))
	}
	c.stats.SlaveRequests++

	s.busy = now + elapsed
	// Static completion callbacks (no per-service closure). Completions
	// fire in admission order — s.busy is strictly increasing across
	// services — so the spilled completions pop the FIFO overflow queue
	// in exactly the order their admissions pushed it.
	if spilled {
		c.eng.AtCall(s.busy, slaveDoneSpilled, s)
	} else {
		c.eng.AtCall(s.busy, slaveDone, s)
	}
	c.send(reply, elapsed)
}

func slaveDone(a any) {
	a.(*slaveModule).backlog--
}

func slaveDoneSpilled(a any) {
	s := a.(*slaveModule)
	s.backlog--
	s.overflow.Pop()
}
