// Package cpu models the R10000 processor of a Cenju-4 node executing a
// workload program: a stream of memory accesses, compute batches, and
// synchronization operations.
//
// Cache hits and compute never enter the event engine — the processor
// accumulates their cost locally and only schedules an event when it
// blocks (coherence miss, private-memory miss, message wait, barrier) or
// when its accumulated quantum expires (so concurrent processors
// interleave fairly). This keeps application-scale simulations tractable
// while every coherence transaction remains fully event-driven.
package cpu

import (
	"fmt"

	"cenju4/internal/cache"
	"cenju4/internal/core"
	"cenju4/internal/sim"
	"cenju4/internal/timing"
	"cenju4/internal/topology"
)

// OpKind enumerates program operations.
type OpKind uint8

const (
	// OpCompute executes N instructions with no memory traffic.
	OpCompute OpKind = iota
	// OpLoad reads Addr (N = 1 implied).
	OpLoad
	// OpStore writes Addr.
	OpStore
	// OpBarrier joins barrier N (all nodes must arrive).
	OpBarrier
	// OpSend transmits N bytes to node Dst through the message-passing
	// mechanism (private memory; no coherence traffic).
	OpSend
	// OpRecv blocks until a message from node Dst arrives.
	OpRecv
	// OpAllReduce performs a global reduction of N bytes.
	OpAllReduce
)

// Op is one program operation. The fields run widest first so an Op
// packs into 24 bytes.
type Op struct {
	Addr topology.Addr
	N    uint64
	Dst  topology.NodeID
	Kind OpKind
}

// MinFill is the smallest buffer a processor passes to Program.Fill:
// room for one whole loop body of the npb generators (at most three
// ops), so a generator never has to split one.
const MinFill = 4

// Program supplies a node's operation stream in batches. Fill writes
// the next ops into buf (len(buf) >= MinFill) and returns how many it
// wrote; 0 means the program has finished. Programs are single-use
// pure generators: what they emit must not depend on simulation
// state, because the processor fetches ops ahead of executing them.
type Program interface {
	Fill(buf []Op) int
}

// SliceProgram adapts a materialized op slice (used by tests and small
// workloads).
type SliceProgram struct {
	Ops []Op
	pos int
}

//cenju4:hotpath
func (p *SliceProgram) Fill(buf []Op) int {
	n := copy(buf, p.Ops[p.pos:])
	p.pos += n
	return n
}

// Sync provides the blocking synchronization and message-passing
// operations (implemented by the mpi package). Collectives match up by
// per-node arrival order: every program must issue its barriers and
// reductions in the same global sequence, as MPI programs do.
type Sync interface {
	// Barrier calls done when every node has arrived at its next barrier.
	Barrier(node topology.NodeID, done func())
	// Send transmits n bytes from src to dst (non-blocking).
	Send(src, dst topology.NodeID, n uint64)
	// Recv calls done when a message from src has arrived at dst.
	Recv(dst, src topology.NodeID, done func())
	// AllReduce calls done when the node's next global reduction of n
	// bytes completes.
	AllReduce(node topology.NodeID, n uint64, done func())
}

// Stats aggregates one processor's execution characteristics (the
// columns of Tables 3 and 4).
type Stats struct {
	Instructions uint64 // executed instructions (incl. memory accesses)
	MemAccesses  uint64
	// Memory access breakdown.
	PrivateAccesses uint64
	LocalAccesses   uint64 // shared, homed at this node
	RemoteAccesses  uint64 // shared, homed elsewhere
	// Secondary cache miss breakdown (store-to-shared counts as a miss).
	Misses        uint64
	PrivateMisses uint64
	LocalMisses   uint64
	RemoteMisses  uint64
	// Time breakdown.
	BusyTime sim.Time // compute + memory (non-sync)
	SyncTime sim.Time // barriers, recv waits, reductions
	Finished bool
	EndTime  sim.Time
}

// MissRatio returns misses / memory accesses.
func (s Stats) MissRatio() float64 {
	if s.MemAccesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.MemAccesses)
}

// CPU executes one node's program.
type CPU struct {
	node    topology.NodeID
	eng     *sim.Engine
	ctrl    *core.Controller
	sync    Sync
	params  timing.Params
	nsPerIn sim.Time
	quantum sim.Time

	prog  Program
	stats Stats
	done  func()

	// ops[opPos:opLen] are fetched but not yet executed. The buffer
	// outlives step calls, which is safe because programs are pure
	// generators (see Program).
	ops   [opBufLen]Op
	opPos int
	opLen int

	// Blocking-op scratch for the static event callbacks below: at most
	// one blocking miss / finish / quantum event is outstanding per CPU
	// (step returns after scheduling one), so a single set of fields
	// replaces the per-event closures the hot path used to allocate.
	pendAddr  topology.Addr
	pendStore bool
	pendAcc   sim.Time
	resumeFn  func() // allocated once: the controller's done callback
}

// opBufLen is the op-buffer size: two cache blocks of a streaming
// phase per Fill call.
const opBufLen = 32

// Config parameterizes a CPU.
type Config struct {
	Node topology.NodeID
	// NsPerInstr is the average non-memory instruction cost (default 5:
	// a ~200 MHz R10000 sustaining ~1 instruction per cycle).
	NsPerInstr sim.Time
	// Quantum bounds how much local time the processor accumulates
	// before yielding to the event engine (default 20 us).
	Quantum sim.Time
	// Params supplies hit/miss latency constants.
	Params timing.Params
}

// New builds a CPU bound to a controller and sync provider.
func New(eng *sim.Engine, ctrl *core.Controller, sync Sync, cfg Config) *CPU {
	if cfg.NsPerInstr == 0 {
		cfg.NsPerInstr = 5
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 20000
	}
	if cfg.Params == (timing.Params{}) {
		cfg.Params = timing.Default()
	}
	c := &CPU{}
	c.Init(eng, ctrl, sync, cfg)
	return c
}

// Init initializes a zero CPU in place (machine.Machine slab-allocates
// its processors; see core.Controller.Init).
func (c *CPU) Init(eng *sim.Engine, ctrl *core.Controller, sync Sync, cfg Config) {
	if cfg.NsPerInstr == 0 {
		cfg.NsPerInstr = 5
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 20000
	}
	if cfg.Params == (timing.Params{}) {
		cfg.Params = timing.Default()
	}
	c.node = cfg.Node
	c.eng = eng
	c.ctrl = ctrl
	c.sync = sync
	c.params = cfg.Params
	c.nsPerIn = cfg.NsPerInstr
	c.quantum = cfg.Quantum
	c.resumeFn = func() { c.step() }
}

// Stats returns the execution counters.
func (c *CPU) Stats() Stats { return c.stats }

// Run starts executing prog; done fires when the program ends.
func (c *CPU) Run(prog Program, done func()) {
	c.prog = prog
	c.done = done
	c.opPos, c.opLen = 0, 0
	c.eng.After(0, c.resumeFn)
}

// step consumes operations until the processor must block or its
// quantum expires (checked after compute and send ops only).
//
// No event runs inside one step call, so a block this step has just
// accessed is still at the front of its cache set, in the state the
// access left it. memo remembers the last two such blocks: a load to
// either, or a store to one that is Modified, is a hit that changes
// nothing in the cache, so it skips the lookup. The memo dies with the
// call.
func (c *CPU) step() {
	var acc sim.Time
	var memo hitMemo
	ca := c.ctrl.Cache()
	for {
		if c.opPos == c.opLen {
			c.opPos, c.opLen = 0, c.prog.Fill(c.ops[:])
			if c.opLen == 0 {
				c.pendAcc = acc
				c.eng.AtCall(c.eng.Now()+acc, cpuFinish, c)
				return
			}
		}
		op := c.ops[c.opPos]
		c.opPos++
		switch op.Kind {
		case OpCompute:
			c.stats.Instructions += op.N
			acc += sim.Time(op.N) * c.nsPerIn

		case OpLoad, OpStore:
			c.stats.Instructions++
			c.stats.MemAccesses++
			store := op.Kind == OpStore
			shared := op.Addr.Shared()
			local := shared && op.Addr.Home() == c.node
			switch {
			case !shared:
				c.stats.PrivateAccesses++
			case local:
				c.stats.LocalAccesses++
			default:
				c.stats.RemoteAccesses++
			}
			block := op.Addr.Block()
			if memo.hit(block, store) {
				ca.Rehit()
				if shared {
					c.ctrl.NoteAccessHit(op.Addr, store)
				}
				acc += c.params.CacheHit
				continue
			}
			if !shared {
				st, hit := c.privateAccess(op.Addr, store)
				if hit {
					acc += c.params.CacheHit
				} else {
					c.stats.Misses++
					c.stats.PrivateMisses++
					acc += c.params.ProcOverhead + c.params.MemAccess
				}
				memo.remember(ca, block, st, store)
				continue
			}
			if st, hit := ca.Access(op.Addr, store); hit {
				c.ctrl.NoteAccessHit(op.Addr, store)
				acc += c.params.CacheHit
				memo.remember(ca, block, st, store)
				continue
			}
			c.stats.Misses++
			if local {
				c.stats.LocalMisses++
			} else {
				c.stats.RemoteMisses++
			}
			// Block on the coherence transaction.
			c.stats.BusyTime += acc
			c.pendAddr, c.pendStore = op.Addr, store
			c.eng.AtCall(c.eng.Now()+acc, cpuMiss, c)
			return

		case OpBarrier:
			c.blockOnSync(acc, func(done func()) { c.sync.Barrier(c.node, done) })
			return
		case OpRecv:
			c.blockOnSync(acc, func(done func()) { c.sync.Recv(c.node, op.Dst, done) })
			return
		case OpAllReduce:
			c.blockOnSync(acc, func(done func()) { c.sync.AllReduce(c.node, op.N, done) })
			return
		case OpSend:
			c.stats.Instructions++
			// Charge the software send overhead locally; transfer time is
			// the receiver's problem.
			acc += c.params.ProcOverhead
			dst, n := op.Dst, op.N
			c.eng.After(acc, func() { c.sync.Send(c.node, dst, n) })

		default:
			panic(fmt.Sprintf("cpu: unknown op kind %d", op.Kind))
		}
		if acc >= c.quantum {
			c.stats.BusyTime += acc
			c.eng.AtCall(c.eng.Now()+acc, cpuResume, c)
			return
		}
	}
}

// hitMemo holds up to two blocks with the state each was left in, most
// recent first; an Invalid entry is empty. The two are never in the
// same cache set, so an access that moves a block to the front of a set
// replaces at most the entry for that set.
type hitMemo [2]struct {
	block topology.Addr
	st    cache.LineState
}

// hit reports whether an access to block is a memoized no-change hit,
// and makes a matching second entry the most recent.
//
//cenju4:hotpath
func (m *hitMemo) hit(block topology.Addr, store bool) bool {
	for i, e := range m {
		if e.block != block || e.st == cache.Invalid || store && e.st != cache.Modified {
			continue
		}
		if i == 1 {
			m[0], m[1] = m[1], m[0]
		}
		return true
	}
	return false
}

// remember records that an access has just left block at the front of
// its set, in state st or, after a store, Modified. It drops the entry
// for the same set or else the older entry.
func (m *hitMemo) remember(ca *cache.Cache, block topology.Addr, st cache.LineState, store bool) {
	if store {
		st = cache.Modified
	}
	if m[0].st != cache.Invalid && !ca.SameSet(m[0].block, block) {
		m[1] = m[0]
	}
	m[0].block, m[0].st = block, st
}

// blockOnSync charges accumulated busy time, then enters a sync wait
// whose duration counts as synchronization time.
func (c *CPU) blockOnSync(acc sim.Time, enter func(done func())) {
	c.stats.BusyTime += acc
	c.eng.After(acc, func() {
		start := c.eng.Now()
		enter(func() {
			c.stats.SyncTime += c.eng.Now() - start
			c.step()
		})
	})
}

// cpuMiss is the static blocked-miss callback: the access that blocked
// is in the CPU's pend fields and resumeFn re-enters step when the
// coherence transaction graduates.
func cpuMiss(a any) {
	c := a.(*CPU)
	c.ctrl.Request(c.pendAddr, c.pendStore, c.resumeFn)
}

// cpuResume is the static quantum-expiry callback.
func cpuResume(a any) { a.(*CPU).step() }

// cpuFinish is the static program-completion callback; pendAcc carries
// the final op batch's accumulated busy time.
func cpuFinish(a any) {
	c := a.(*CPU)
	c.stats.BusyTime += c.pendAcc
	c.stats.Finished = true
	c.stats.EndTime = c.eng.Now()
	c.done()
}

// privateAccess simulates the private-memory hierarchy: private blocks
// live in the same secondary cache; evicted shared victims raise
// writebacks through the controller, evicted private victims cost
// nothing extra (their writeback is local and overlapped). Like
// Cache.Access it returns the line's state before a hit; after a miss,
// the state the block was inserted in.
func (c *CPU) privateAccess(addr topology.Addr, store bool) (cache.LineState, bool) {
	st, hit := c.ctrl.Cache().Access(addr, store)
	if hit {
		return st, true
	}
	// Private blocks never need ownership transactions: a store "miss"
	// on a Shared-state private line cannot occur (they are inserted
	// Exclusive/Modified), so st is Invalid here.
	ins := cache.Modified
	if !store {
		ins = cache.Exclusive
	}
	if v := c.ctrl.Cache().Insert(addr, ins); v.Writeback && v.Addr.Shared() {
		c.ctrl.EvictShared(v.Addr)
	}
	return ins, false
}
