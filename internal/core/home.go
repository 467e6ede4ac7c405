package core

import (
	"fmt"

	"cenju4/internal/directory"
	"cenju4/internal/memory"
	"cenju4/internal/msg"
	"cenju4/internal/sim"
	"cenju4/internal/topology"
)

// queuedReq is one 64-bit entry of the memory-resident request queue:
// the request kind, the master, and the target block. val preserves a
// queued update-write's tagged data for the value tracker (a queued
// write-through keeps its payload in the memory buffer).
type queuedReq struct {
	kind   msg.Kind
	master topology.NodeID
	addr   topology.Addr
	val    uint64
	// seq is the requesting attempt's sequence stamp, echoed into the
	// eventual reply so the master can match (or discard) it.
	seq uint32
}

// txn is the home's context for a pending block: who the transaction is
// for and what completes it. Records are pooled on the home's free
// list (next), so steady-state transaction churn allocates nothing.
type txn struct {
	kind     msg.Kind // original request kind
	master   topology.NodeID
	seq      uint32 // request's sequence stamp, echoed in the reply
	acksLeft int    // outstanding singlecast invalidation acks
	next     *txn   // home free list
}

// homeModule owns the directory for locally-homed blocks.
type homeModule struct {
	module
	c       *Controller
	queue   *memory.Queue[queuedReq] // starvation FIFO (32 KB at 1024 nodes)
	pending map[topology.Addr]*txn
	// overflow models the home's outbound buffer in main memory: one
	// entry (invalidation request + node map) per in-flight invalidation
	// transaction (64 KB at 1024 nodes).
	overflow *memory.Queue[topology.Addr]
	txnFree  *txn // recycled pending-transaction records
}

// newTxn takes a transaction record from the free list (or seeds it).
//
//cenju4:hotpath
func (h *homeModule) newTxn(kind msg.Kind, master topology.NodeID, seq uint32) *txn {
	t := h.txnFree
	if t == nil {
		//cenju4:alloc-ok pool seeding: records recycle on completion, so the pool settles at the pending-block peak
		t = &txn{}
	} else {
		h.txnFree = t.next
	}
	t.kind = kind
	t.master = master
	t.seq = seq
	t.acksLeft = 0
	t.next = nil
	return t
}

// freeTxn returns a completed transaction record to the pool.
func (h *homeModule) freeTxn(t *txn) {
	t.next = h.txnFree
	h.txnFree = t
}

func (h *homeModule) init(c *Controller) {
	h.c = c
	cap := memory.RequestQueueCapacity(c.cfg.Nodes)
	if c.cfg.RequestTimeout > 0 {
		// With recovery armed, a master whose transaction is wedged
		// behind a pending block retransmits into this queue: each of
		// its bounded retransmits can add one more copy of an entry the
		// paper's sizing argument counts once. The bound extends by the
		// retransmit limit, so the no-drop guarantee holds under fault
		// injection too.
		cap *= 1 + c.cfg.RetransmitLimit
	}
	if c.cfg.QueueCapOverride > 0 {
		cap = c.cfg.QueueCapOverride
	}
	h.queue = memory.NewQueue[queuedReq]("home-requests", cap, memory.RequestQueueBits)
	h.overflow = memory.NewQueue[topology.Addr]("home-out-overflow", cap, memory.OverflowQueueBits)
	h.pending = make(map[topology.Addr]*txn)
}

// handle processes one message addressed to this home. Directory
// mutations apply immediately (arrivals are already time-ordered by the
// event engine); the module's busy window — including any backlog from
// earlier services — delays the outbound effects, preserving the
// one-service-at-a-time discipline. This serialization at a hot home is
// what makes the no-multicast invalidation storm of Figure 10 linear.
func (h *homeModule) handle(m *msg.Message) {
	c := h.c
	now := c.eng.Now()
	var elapsed sim.Time
	if h.busy > now {
		elapsed = h.busy - now // wait for the service in progress
	}
	if !c.isLocal(m) {
		elapsed += c.params.HomeProc
	}
	switch m.Kind {
	case msg.ReadShared, msg.ReadExclusive, msg.Ownership, msg.UpdateWrite:
		c.stats.HomeRequests++
		elapsed += h.processRequest(m.Kind, m.Master, m.Addr, m.Val, m.Seq, elapsed)
	case msg.WriteBack:
		elapsed += h.processWriteBack(m)
	case msg.SlaveData, msg.SlaveAck:
		elapsed += h.processSlaveReply(m, elapsed)
	case msg.InvAck, msg.UpdateAck:
		elapsed += h.processInvAck(m, elapsed)
	default:
		panic(fmt.Sprintf("core: home received %v", m))
	}
	h.busy = now + elapsed
}

// processRequest runs the appendix request sequences. sofar is the cost
// already accumulated for this service (outbound sends depart after the
// full service time). It returns the additional processing cost.
func (h *homeModule) processRequest(kind msg.Kind, master topology.NodeID, addr topology.Addr, val uint64, seq uint32, sofar sim.Time) sim.Time {
	c := h.c
	p := c.params
	e := c.mem.Entry(addr)
	cost := p.DirAccess

	if e.State().Pending() {
		if c.cfg.Mode == ModeNack {
			h.reply(master, c.newMsg(msg.Message{Kind: msg.Nack, OrigKind: kind, Addr: addr, Master: master, Seq: seq}), sofar+cost)
			return cost
		}
		// Queuing protocol: an ownership request against a pending block
		// is converted to read-exclusive (the shared copy may be gone by
		// the time it is dequeued), then saved in the memory FIFO.
		if kind == msg.Ownership {
			kind = msg.ReadExclusive
		}
		wasEmpty := h.queue.Empty()
		h.queue.Push(queuedReq{kind, master, addr, val, seq})
		c.stats.QueuedRequests++
		if wasEmpty && !(c.cfg.Faults != nil && c.cfg.Faults.SkipReservation) {
			// The new request is at the top of the queue: mark its block.
			e.SetReserved(true)
		}
		return cost + p.QueueOp
	}
	return cost + h.processStable(kind, master, addr, val, seq, e, sofar+cost)
}

// processStable handles a request against a stable (clean or dirty)
// block, per the appendix. It may leave the block pending.
func (h *homeModule) processStable(kind msg.Kind, master topology.NodeID, addr topology.Addr, val uint64, seq uint32, e *directory.Entry, sofar sim.Time) sim.Time {
	c := h.c
	p := c.params
	switch kind {
	case msg.UpdateWrite:
		// Update-protocol extension: write memory, then multicast the
		// new data to every node's third-level cache and gather the
		// acknowledgements.
		e.SetState(directory.PendingUpdate)
		t := h.newTxn(kind, master, seq)
		h.pending[addr] = t
		h.overflow.Push(addr)
		if c.vals != nil {
			// This directory access is the write-through's serialization
			// point: memory takes the data and the broadcast fans it out.
			c.vals.memWrite(c.cfg.Node, addr, val)
			c.vals.updateOrdered(master, addr, val, c.eng.Now())
		}
		um := msg.Message{
			Kind:    msg.UpdateData,
			Src:     c.cfg.Node,
			Dest:    c.allNodes,
			Addr:    addr,
			Master:  master,
			HasData: true,
			Val:     val,
		}
		if c.fab.MulticastEnabled() {
			pm := c.newMsg(um)
			pm.Gather = c.fab.AllocGather(c.allNodes, c.cfg.Node)
			t.acksLeft = 1
			c.send(pm, sofar+p.MemAccess)
		} else {
			targets := c.allNodes.Members(c.memberBuf[:0], c.cfg.Nodes)
			t.acksLeft = len(targets)
			for _, n := range targets {
				cp := c.newMsg(um)
				cp.Dest = directory.Single(n)
				c.send(cp, sofar+p.MemAccess)
			}
		}
		return p.MemAccess
	case msg.ReadShared:
		switch {
		case e.MapIsOnly(master) && !c.updateBlock(addr):
			// No node (or only the master) caches: grant exclusive.
			// Update-protocol blocks are never granted exclusively — a
			// silent E->M upgrade would bypass the write-through and
			// strand every third-level cache on stale data (the
			// validator's "no exclusive owner under the update protocol"
			// invariant).
			e.SetState(directory.Dirty)
			e.MapSetOnly(master)
			h.reply(master, c.newMsg(msg.Message{Kind: msg.HomeData, Addr: addr, Master: master, HasData: true, Excl: true, Val: h.memVal(addr), Seq: seq}), sofar+p.MemAccess)
			return p.MemAccess
		case e.State() == directory.Clean ||
			(c.cfg.Faults != nil && c.cfg.Faults.StaleDirtyRead):
			// Injected fault: a dirty block is served from (stale) memory
			// without forwarding to the owner.
			e.MapAdd(master)
			h.reply(master, c.newMsg(msg.Message{Kind: msg.HomeData, Addr: addr, Master: master, HasData: true, Val: h.memVal(addr), Seq: seq}), sofar+p.MemAccess)
			return p.MemAccess
		default: // Dirty at another node: forward to the slave.
			slave := h.dirtyOwner(e)
			e.SetState(directory.PendingShared)
			h.pending[addr] = h.newTxn(kind, master, seq)
			h.forward(slave, msg.FwdReadShared, addr, master, sofar)
			return 0
		}

	case msg.ReadExclusive, msg.Ownership:
		switch {
		case e.MapIsOnly(master):
			e.SetState(directory.Dirty)
			e.MapSetOnly(master)
			if kind == msg.Ownership {
				// Sole sharer upgrading: no data transfer needed.
				h.reply(master, c.newMsg(msg.Message{Kind: msg.HomeAck, Addr: addr, Master: master, Seq: seq}), sofar)
				return 0
			}
			h.reply(master, c.newMsg(msg.Message{Kind: msg.HomeData, Addr: addr, Master: master, HasData: true, Excl: true, Val: h.memVal(addr), Seq: seq}), sofar+p.MemAccess)
			return p.MemAccess
		case e.State() == directory.Clean:
			// Other nodes registered: invalidate them all.
			if kind == msg.Ownership {
				e.SetState(directory.PendingInvalidate)
			} else {
				e.SetState(directory.PendingExclusive)
			}
			t := h.newTxn(kind, master, seq)
			h.pending[addr] = t
			h.invalidate(e.Dest(), addr, master, t, sofar)
			return 0
		default: // Dirty at another node.
			slave := h.dirtyOwner(e)
			e.SetState(directory.PendingExclusive)
			// An ownership request that races with a steal of the line is
			// served as a read-exclusive: the master's copy is stale.
			h.pending[addr] = h.newTxn(msg.ReadExclusive, master, seq)
			h.forward(slave, msg.FwdReadExclusive, addr, master, sofar)
			return 0
		}
	default:
		panic(fmt.Sprintf("core: processStable(%v)", kind))
	}
}

// dirtyOwner returns the single node registered for a dirty block.
func (h *homeModule) dirtyOwner(e *directory.Entry) topology.NodeID {
	members := e.MapMembers(h.c.memberBuf[:0], h.c.cfg.Nodes)
	if len(members) != 1 {
		panic(fmt.Sprintf("core: dirty block with %d registered nodes", len(members)))
	}
	return members[0]
}

// forward relays a request to the dirty slave.
func (h *homeModule) forward(slave topology.NodeID, kind msg.Kind, addr topology.Addr, master topology.NodeID, delay sim.Time) {
	c := h.c
	c.stats.HomeForwards++
	c.send(c.newMsg(msg.Message{
		Kind:   kind,
		Src:    c.cfg.Node,
		Dest:   directory.Single(slave),
		Addr:   addr,
		Master: master,
	}), delay)
}

// invalidate sends invalidation requests to every node the map
// represents. Above the singlecast threshold it multicasts one message
// carrying the directory's own destination structure and collects the
// acknowledgements with the network's gathering function; otherwise it
// sends singlecasts and counts individual acks.
func (h *homeModule) invalidate(spec directory.Dest, addr topology.Addr, master topology.NodeID, t *txn, delay sim.Time) {
	c := h.c
	targets := spec.Members(c.memberBuf[:0], c.cfg.Nodes)
	if len(targets) == 0 {
		panic("core: invalidate with no targets")
	}
	c.stats.Invalidations++
	c.stats.InvTargets += uint64(len(targets))
	h.overflow.Push(addr) // outbound buffer: one invalidation + node map
	base := msg.Message{
		Kind:   msg.Invalidate,
		Src:    c.cfg.Node,
		Addr:   addr,
		Master: master,
	}
	if c.fab.MulticastEnabled() && len(targets) > c.cfg.SinglecastThreshold {
		m := c.newMsg(base)
		m.Dest = spec
		m.Gather = c.fab.AllocGather(spec, c.cfg.Node)
		t.acksLeft = 1 // one gathered reply
		c.send(m, delay)
		return
	}
	t.acksLeft = len(targets)
	for _, n := range targets {
		m := c.newMsg(base)
		m.Dest = directory.Single(n)
		c.send(m, delay)
	}
}

// reply sends a message back to the master. The home reads the block
// from memory when the reply carries data (cost accounted by caller).
func (h *homeModule) reply(master topology.NodeID, m *msg.Message, delay sim.Time) {
	m.Src = h.c.cfg.Node
	m.Dest = directory.Single(master)
	h.c.send(m, delay)
}

// memVal reads the home-memory value of addr for a data reply (0 when
// no value tracker is attached).
func (h *homeModule) memVal(addr topology.Addr) uint64 {
	if h.c.vals == nil {
		return 0
	}
	return h.c.vals.MemValue(h.c.cfg.Node, addr)
}

// processWriteBack accepts a writeback even while the block is pending
// (the "no-reply" sequence that shrinks the starvation/deadlock
// buffers).
func (h *homeModule) processWriteBack(m *msg.Message) sim.Time {
	c := h.c
	p := c.params
	e := c.mem.Entry(m.Addr)
	if e.State() == directory.Dirty {
		e.SetState(directory.Clean)
		e.MapClear()
	}
	// In any other state (including pending) the directory is unchanged:
	// the data lands in memory and the in-flight transaction completes
	// against valid memory contents.
	if c.vals != nil {
		c.vals.memWrite(c.cfg.Node, m.Addr, m.Val)
	}
	return p.DirAccess + p.MemAccess
}

// processSlaveReply finishes a forwarded transaction.
func (h *homeModule) processSlaveReply(m *msg.Message, sofar sim.Time) sim.Time {
	c := h.c
	p := c.params
	e := c.mem.Entry(m.Addr)
	t := h.pending[m.Addr]
	if t == nil {
		panic(fmt.Sprintf("core: slave reply %v with no pending transaction", m))
	}
	cost := p.DirAccess + p.MemAccess // memory write (dirty data) or read (reply data)
	if c.vals != nil && m.Kind == msg.SlaveData {
		c.vals.memWrite(c.cfg.Node, m.Addr, m.Val) // dirty data lands in memory
	}
	switch e.State() {
	case directory.PendingShared:
		e.SetState(directory.Clean)
		e.MapAdd(t.master)
		h.reply(t.master, c.newMsg(msg.Message{Kind: msg.HomeData, Addr: m.Addr, Master: t.master, HasData: true, Val: h.memVal(m.Addr), Seq: t.seq}), sofar+cost)
	case directory.PendingExclusive:
		e.SetState(directory.Dirty)
		e.MapSetOnly(t.master)
		h.reply(t.master, c.newMsg(msg.Message{Kind: msg.HomeData, Addr: m.Addr, Master: t.master, HasData: true, Excl: true, Val: h.memVal(m.Addr), Seq: t.seq}), sofar+cost)
	default:
		panic(fmt.Sprintf("core: slave reply in state %v", e.State()))
	}
	delete(h.pending, m.Addr)
	h.freeTxn(t)
	cost += h.completeBlock(e, sofar+cost)
	return cost
}

// processInvAck counts invalidation acknowledgements (one gathered
// message, or one per target in singlecast mode) and completes the
// transaction on the last.
func (h *homeModule) processInvAck(m *msg.Message, sofar sim.Time) sim.Time {
	c := h.c
	p := c.params
	e := c.mem.Entry(m.Addr)
	t := h.pending[m.Addr]
	if t == nil {
		panic(fmt.Sprintf("core: inv-ack %v with no pending transaction", m))
	}
	t.acksLeft--
	if t.acksLeft > 0 {
		return 0 // singlecast mode: more acks coming
	}
	if _, ok := h.overflow.Pop(); !ok {
		panic("core: invalidation completion with empty outbound buffer")
	}
	cost := p.DirAccess
	switch t.kind {
	case msg.UpdateWrite:
		// All third-level caches updated: the block stays clean and the
		// node map is untouched (the update protocol does not track
		// sharers — every node holds the data).
		e.SetState(directory.Clean)
		h.reply(t.master, c.newMsg(msg.Message{Kind: msg.HomeAck, Addr: m.Addr, Master: t.master, Seq: t.seq}), sofar+cost)
	case msg.Ownership:
		e.SetState(directory.Dirty)
		e.MapSetOnly(t.master)
		h.reply(t.master, c.newMsg(msg.Message{Kind: msg.HomeAck, Addr: m.Addr, Master: t.master, Seq: t.seq}), sofar+cost)
	case msg.ReadExclusive:
		// Send the block (a pending ownership that raced with a steal
		// was already downgraded to read-exclusive when queued).
		e.SetState(directory.Dirty)
		e.MapSetOnly(t.master)
		cost += p.MemAccess
		h.reply(t.master, c.newMsg(msg.Message{Kind: msg.HomeData, Addr: m.Addr, Master: t.master, HasData: true, Excl: true, Val: h.memVal(m.Addr), Seq: t.seq}), sofar+cost)
	default:
		panic(fmt.Sprintf("core: invalidation transaction completed for %v", t.kind))
	}
	delete(h.pending, m.Addr)
	h.freeTxn(t)
	cost += h.completeBlock(e, sofar+cost)
	return cost
}

// completeBlock runs after a transaction returns a block to a stable
// state: if the reservation bit is set, the request at the top of the
// memory queue targets this block — drain the queue until it empties or
// a request hits a still-pending block. It returns the drain cost.
func (h *homeModule) completeBlock(e *directory.Entry, sofar sim.Time) sim.Time {
	if !e.Reserved() {
		return 0
	}
	e.SetReserved(false)
	return h.drainQueue(sofar)
}

// drainQueue returns the processing cost it adds; the caller folds it
// into the service time.
func (h *homeModule) drainQueue(sofar sim.Time) sim.Time {
	c := h.c
	p := c.params
	var added sim.Time
	for {
		req, ok := h.queue.Peek()
		if !ok {
			return added
		}
		e := c.mem.Entry(req.addr)
		if e.State().Pending() {
			// Head of queue must wait: mark its block and stop.
			e.SetReserved(true)
			return added
		}
		h.queue.Pop()
		base := sofar + added + p.QueueOp + p.DirAccess
		extra := h.processStable(req.kind, req.master, req.addr, req.val, req.seq, e, base)
		added += p.QueueOp + p.DirAccess + extra
	}
}
