package core

import (
	"fmt"

	"cenju4/internal/cache"
	"cenju4/internal/directory"
	"cenju4/internal/msg"
	"cenju4/internal/sim"
	"cenju4/internal/stats"
	"cenju4/internal/topology"
)

// mshr is one outstanding master transaction (the R10000 allows four).
// The master holds them in a fixed in-struct array — matching the four
// hardware miss registers — instead of a map of heap records: slot
// lookup is a four-entry linear scan and issuing/completing a
// transaction allocates nothing. owner points back to the module so a
// slot pointer is a self-sufficient argument for the static retry and
// complete callbacks.
type mshr struct {
	owner     *masterModule
	addr      topology.Addr
	store     bool
	active    bool
	kind      msg.Kind
	issuedAt  sim.Time
	done      func()
	waiters   []deferredReq // same-block accesses arriving mid-flight
	retries   int
	installL3 bool   // update protocol: record the block in the local L3
	tag       uint64 // update protocol: value tag assigned at issue

	// Fault-recovery state (inert unless Config.RequestTimeout is set).
	// seq is the transaction's sequence stamp: carried on every attempt
	// and echoed by the home, so replies to transactions this slot no
	// longer holds are recognized and dropped. settled latches "a reply
	// was accepted and the completion (or nack retry) is in flight" —
	// the window in which a duplicated reply must be discarded, not
	// double-processed. timer is the armed retransmit timeout; resends
	// counts timeout-driven re-sends.
	seq     uint32
	resends int
	settled bool
	timer   *sim.Event
}

type deferredReq struct {
	addr  topology.Addr
	store bool
	done  func()
}

// nackDelay is the master's retry backoff after a nack (ModeNack).
const nackDelay sim.Time = 1000

// masterModule issues requests and consumes replies.
type masterModule struct {
	c           *Controller
	slots       [topology.MaxOutstanding]mshr
	outstanding int
	deferred    []deferredReq // waiting for a free MSHR slot
	defHead     int           // consumed prefix of deferred (head index, no reslice)

	// Write-combining buffer for the update-protocol extension: one
	// block slot. The first store to a block broadcasts the update;
	// subsequent stores to the same block are absorbed until the
	// processor moves to another block (real update protocols combine
	// at block granularity or broadcast every word — combining is what
	// makes the extension profitable).
	combining      topology.Addr
	combiningValid bool

	// lat tracks per-request-kind transaction latency distributions,
	// indexed by msg.Kind (allocated lazily per kind actually seen).
	lat [msg.NumKinds]*stats.Histogram

	// seqCtr issues transaction sequence stamps (see mshr.seq).
	seqCtr uint32
}

func (m *masterModule) init(c *Controller) {
	m.c = c
	for i := range m.slots {
		m.slots[i].owner = m
	}
}

func (m *masterModule) recordLatency(kind msg.Kind, lat sim.Time) {
	h := m.lat[kind]
	if h == nil {
		//cenju4:alloc-ok once per kind actually observed, not per transaction
		h = &stats.Histogram{}
		m.lat[kind] = h
	}
	h.Add(lat)
}

// lookup returns the active slot for addr, or nil.
//
//cenju4:hotpath
func (m *masterModule) lookup(addr topology.Addr) *mshr {
	for i := range m.slots {
		if m.slots[i].active && m.slots[i].addr == addr {
			return &m.slots[i]
		}
	}
	return nil
}

// alloc claims a free slot for a new transaction. The caller guarantees
// one exists (outstanding < MaxOutstanding).
func (m *masterModule) alloc(addr topology.Addr, store bool, kind msg.Kind, done func()) *mshr {
	for i := range m.slots {
		if !m.slots[i].active {
			s := &m.slots[i]
			s.addr = addr
			s.store = store
			s.active = true
			s.kind = kind
			s.issuedAt = m.c.eng.Now()
			s.done = done
			s.retries = 0
			s.installL3 = false
			s.tag = 0
			m.seqCtr++
			s.seq = m.seqCtr
			s.resends = 0
			s.settled = false
			s.timer = nil // released slots never leave a live timer behind
			m.outstanding++
			return s
		}
	}
	panic("core: mshr alloc with all slots active")
}

// request starts (or merges, or defers) a transaction for block addr.
func (m *masterModule) request(addr topology.Addr, store bool, done func()) {
	if slot := m.lookup(addr); slot != nil {
		slot.waiters = append(slot.waiters, deferredReq{addr, store, done})
		return
	}
	if m.outstanding >= topology.MaxOutstanding {
		m.deferred = append(m.deferred, deferredReq{addr, store, done})
		return
	}
	m.issue(addr, store, done)
}

// issue re-examines the cache (a waiter's need may have been satisfied
// by the transaction it waited on) and sends the right request.
func (m *masterModule) issue(addr topology.Addr, store bool, done func()) {
	c := m.c
	if c.updateBlock(addr) {
		m.issueUpdate(addr, store, done)
		return
	}
	st := c.cache.State(addr)
	if !store && st != cache.Invalid {
		if c.vals != nil {
			c.vals.loadObserved(c.cfg.Node, addr, c.eng.Now())
		}
		done() // satisfied by an earlier transaction
		return
	}
	if store {
		switch st {
		case cache.Modified:
			if c.vals != nil {
				c.vals.storeOrdered(c.cfg.Node, addr, c.eng.Now())
			}
			done()
			return
		case cache.Exclusive:
			c.cache.SetState(addr, cache.Modified) // silent upgrade
			if c.vals != nil {
				c.vals.storeOrdered(c.cfg.Node, addr, c.eng.Now())
			}
			done()
			return
		case cache.Shared, cache.Invalid:
			// Ownership upgrade or plain miss: a transaction is issued
			// below.
		}
	}
	kind := msg.ReadShared
	switch {
	case store && st == cache.Shared:
		kind = msg.Ownership
	case store:
		kind = msg.ReadExclusive
	}
	slot := m.alloc(addr, store, kind, done)
	c.stats.Requests[kind]++
	m.sendRequest(slot, kind)
}

// issueUpdate handles accesses to update-protocol blocks: loads are
// served by the local third-level cache when present (the point of the
// extension), first touches fetch normally and install the L3 copy, and
// stores write through to the home.
func (m *masterModule) issueUpdate(addr topology.Addr, store bool, done func()) {
	c := m.c
	p := c.params
	if !store {
		if c.cache.State(addr) != cache.Invalid {
			if c.vals != nil {
				c.vals.loadObserved(c.cfg.Node, addr, c.eng.Now())
			}
			done() // satisfied by a concurrent transaction
			return
		}
		if c.l3[addr] {
			// Third-level cache hit: one local memory access.
			c.stats.L3Hits++
			//cenju4:alloc-ok update-protocol extension path, outside the base-protocol steady state the alloc gate pins
			c.eng.After(p.ProcOverhead+p.MemAccess+p.DirAccess, func() {
				if v := c.cache.Insert(addr, cache.Shared); v.Writeback && v.Addr.Shared() {
					m.writeback(v.Addr)
				}
				if c.vals != nil {
					c.vals.fill(c.cfg.Node, addr, c.vals.L3Value(c.cfg.Node, addr))
					c.vals.loadObserved(c.cfg.Node, addr, c.eng.Now())
				}
				done()
			})
			return
		}
		slot := m.alloc(addr, false, msg.ReadShared, done)
		slot.installL3 = true
		c.stats.Requests[msg.ReadShared]++
		m.sendRequest(slot, msg.ReadShared)
		return
	}
	// Write-through with block-granular combining: the first store to a
	// block broadcasts it; the rest coalesce in the combining buffer.
	if m.combiningValid && m.combining == addr {
		c.eng.After(p.CacheHit, done)
		return
	}
	m.combining = addr
	m.combiningValid = true
	slot := m.alloc(addr, true, msg.UpdateWrite, done)
	if c.vals != nil {
		slot.tag = c.vals.newTag()
	}
	c.stats.Requests[msg.UpdateWrite]++
	c.stats.UpdateWrites++
	m.sendRequest(slot, msg.UpdateWrite)
}

//cenju4:hotpath
func (m *masterModule) sendRequest(slot *mshr, kind msg.Kind) {
	c := m.c
	slot.settled = false // each attempt reopens the reply window
	r := c.newMsg(kind, directory.Single(slot.addr.Home()), slot.addr, c.cfg.Node)
	r.OrigKind, r.HasData, r.Val, r.Seq = kind, kind == msg.UpdateWrite, slot.tag, slot.seq // Val: an update write-through's tagged store
	c.send(r, c.params.ProcOverhead)
	m.armTimer(slot)
}

// armTimer schedules (or re-schedules) the retransmit timeout for the
// attempt just sent: RequestTimeout with exponential backoff per
// resend. A no-op in fault-free configurations.
func (m *masterModule) armTimer(slot *mshr) {
	c := m.c
	if c.cfg.RequestTimeout == 0 {
		return
	}
	if slot.timer != nil {
		c.eng.Cancel(slot.timer)
	}
	d := c.cfg.RequestTimeout << uint(slot.resends)
	slot.timer = c.eng.AtCall(c.eng.Now()+d, masterTimeout, slot)
}

// disarmTimer cancels a pending retransmit timeout; called the moment a
// reply is accepted, before the slot can be released or retried.
func (m *masterModule) disarmTimer(slot *mshr) {
	if slot.timer != nil {
		m.c.eng.Cancel(slot.timer)
		slot.timer = nil
	}
}

// masterTimeout is the static retransmit callback: the reply window
// for the current attempt expired, so re-send the request (the home
// replays idempotently) or, past the retransmit limit, abandon the
// transaction — the slot stays stuck and the machine watchdog reports
// it at quiescence.
func masterTimeout(a any) {
	s := a.(*mshr)
	s.timer = nil // the engine recycles fired event records immediately
	if !s.active || s.settled {
		return
	}
	m := s.owner
	c := m.c
	if s.resends >= c.cfg.RetransmitLimit {
		c.rec.Exhausted++
		return
	}
	s.resends++
	c.rec.Retransmits++
	m.retry(s)
}

// writeback emits a writeback for an evicted modified block. Writebacks
// do not occupy MSHR slots and expect no reply.
func (m *masterModule) writeback(addr topology.Addr) {
	c := m.c
	c.stats.Writebacks++
	var val uint64
	if c.vals != nil {
		val = c.vals.CacheValue(c.cfg.Node, addr) // dirty data leaves with the message
	}
	wb := c.newMsg(msg.WriteBack, directory.Single(addr.Home()), addr, c.cfg.Node)
	wb.OrigKind, wb.HasData, wb.Val = msg.WriteBack, true, val
	c.send(wb, 0)
}

// masterRetry is the static nack-backoff callback: its argument slot
// stays live (active) until the transaction completes, so no closure
// over (module, slot) is needed per retry.
func masterRetry(a any) {
	s := a.(*mshr)
	s.owner.retry(s)
}

// masterComplete is the static completion callback (see masterRetry).
func masterComplete(a any) {
	s := a.(*mshr)
	s.owner.complete(s)
}

// handle consumes a reply from a home.
//
//cenju4:hotpath
func (m *masterModule) handle(rm *msg.Message) {
	c := m.c
	slot := m.lookup(rm.Addr)
	if c.cfg.RequestTimeout > 0 {
		// Recovery armed: a reply with no live matching attempt is a
		// duplicate or a leftover of a retransmitted loss — expected
		// under fault injection, discarded by stamp.
		if slot == nil || slot.settled || rm.Seq != slot.seq {
			c.rec.StaleReplies++
			return
		}
	} else if slot == nil {
		panic(fmt.Sprintf("core: %v reply %v with no outstanding transaction", c.cfg.Node, rm))
	}
	var cost sim.Time
	if !c.isLocal(rm) {
		cost = c.params.MasterProc
	}
	switch rm.Kind {
	case msg.HomeData:
		var st cache.LineState
		switch {
		case slot.store:
			st = cache.Modified
		case rm.Excl:
			st = cache.Exclusive
		default:
			st = cache.Shared
		}
		if v := c.cache.Insert(rm.Addr, st); v.Writeback {
			if v.Addr.Shared() {
				m.writeback(v.Addr)
			}
		}
		if slot.installL3 {
			c.l3[rm.Addr] = true
		}
		if c.vals != nil {
			if slot.store {
				// The pending store drains into the arriving block: this
				// grant is the store's serialization point (every stale
				// copy was invalidated before the home replied).
				c.vals.storeOrdered(c.cfg.Node, rm.Addr, c.eng.Now())
			} else {
				c.vals.fill(c.cfg.Node, rm.Addr, rm.Val)
				if slot.installL3 {
					c.vals.l3Write(c.cfg.Node, rm.Addr, rm.Val)
				}
				c.vals.loadObserved(c.cfg.Node, rm.Addr, c.eng.Now())
			}
		}
	case msg.HomeAck:
		if slot.kind == msg.UpdateWrite {
			// Write-through completed: memory holds the data, the local
			// copy (if any) stays Shared.
			if c.cache.State(rm.Addr) == cache.Invalid {
				if v := c.cache.Insert(rm.Addr, cache.Shared); v.Writeback && v.Addr.Shared() {
					m.writeback(v.Addr)
				}
				if c.vals != nil {
					c.vals.fill(c.cfg.Node, rm.Addr, slot.tag)
				}
			}
			break
		}
		// Ownership granted without data transfer. If the shared copy
		// was meanwhile displaced by a replacement, re-allocate the line
		// (the store data is the processor's own).
		if c.cache.State(rm.Addr) == cache.Invalid {
			if v := c.cache.Insert(rm.Addr, cache.Modified); v.Writeback && v.Addr.Shared() {
				m.writeback(v.Addr)
			}
		} else {
			c.cache.SetState(rm.Addr, cache.Modified)
		}
		if c.vals != nil {
			c.vals.storeOrdered(c.cfg.Node, rm.Addr, c.eng.Now())
		}
	case msg.Nack:
		c.stats.Nacks++
		slot.retries++
		if slot.retries > c.stats.MaxRetries {
			c.stats.MaxRetries = slot.retries
		}
		c.stats.Retries++
		slot.settled = true // absorb duplicate nacks until the retry re-sends
		m.disarmTimer(slot)
		c.eng.AtCall(c.eng.Now()+cost+nackDelay, masterRetry, slot)
		return
	default:
		panic(fmt.Sprintf("core: master received %v", rm))
	}
	c.stats.Replies++
	slot.settled = true // absorb duplicate replies while completion is in flight
	m.disarmTimer(slot)
	c.eng.AtCall(c.eng.Now()+cost, masterComplete, slot)
}

// retry re-sends a nacked request, downgrading ownership to
// read-exclusive if the shared copy has meanwhile been invalidated.
func (m *masterModule) retry(slot *mshr) {
	kind := slot.kind
	if kind == msg.Ownership && m.c.cache.State(slot.addr) == cache.Invalid {
		kind = msg.ReadExclusive
		slot.kind = kind
	}
	m.sendRequest(slot, kind)
}

// complete graduates the access, releases the slot, and re-drives any
// same-block waiters and deferred requests.
//
//cenju4:hotpath
func (m *masterModule) complete(slot *mshr) {
	c := m.c
	lat := c.eng.Now() - slot.issuedAt
	c.stats.Completed++
	c.stats.LatencySum += lat
	if lat > c.stats.LatencyMax {
		c.stats.LatencyMax = lat
	}
	m.recordLatency(slot.kind, lat)
	done := slot.done
	waiters := slot.waiters
	slot.waiters = nil // re-drives below may reclaim and refill the slot
	slot.done = nil
	slot.active = false
	m.outstanding--
	done()
	for _, w := range waiters {
		m.request(w.addr, w.store, w.done)
	}
	for m.defHead < len(m.deferred) && m.outstanding < topology.MaxOutstanding {
		d := m.deferred[m.defHead]
		m.deferred[m.defHead] = deferredReq{}
		m.defHead++
		m.request(d.addr, d.store, d.done)
	}
	if m.defHead == len(m.deferred) && m.defHead > 0 {
		m.deferred = m.deferred[:0]
		m.defHead = 0
	}
}
