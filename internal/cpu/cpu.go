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
//
// Streaming workloads hand the processor one OpRun per cache block (the
// paper's unit of coherence) instead of one op per 8-byte element. The
// processor looks a run's blocks up once per step and charges the rest
// of the run's accesses as hits in bulk, stopping and resuming at the
// exact element-wise point when a miss blocks or the quantum expires.
package cpu

import (
	"fmt"

	"cenju4/internal/cache"
	"cenju4/internal/core"
	"cenju4/internal/shmem"
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
	// OpRun is the loop body of a stream over Count consecutive
	// shmem.ElemSize elements from Addr, all in one cache block. Per
	// element k it issues, in order: a load of Pair+k*ElemSize
	// (RunWrapPaired only); a load of Addr+k*ElemSize; N compute
	// instructions, none when N is 0 and, in the RunWrap bodies, none on
	// an element that stores; and a store to Addr+k*ElemSize when the
	// element is a store element. Every StoreEvery-th element stores
	// (0: none); StorePhase elements have passed since the last store
	// when the run starts.
	OpRun
)

// RunBody selects an OpRun's loop body.
type RunBody uint8

const (
	// RunStream: load, compute, then the store when due.
	RunStream RunBody = iota
	// RunWrap: load, then the store when due or else compute.
	RunWrap
	// RunWrapPaired: RunWrap after a load of the paired element.
	RunWrapPaired
)

// Op is one program operation. The fields run widest first so an Op
// packs into 32 bytes; Pair and the last four fields serve OpRun only
// (8 bytes more than the other kinds need, so a whole block of a
// stream fits in one op).
type Op struct {
	Addr       topology.Addr
	N          uint64
	Pair       topology.Addr
	Dst        topology.NodeID
	Kind       OpKind
	Body       RunBody
	Count      uint8
	StoreEvery uint8
	StorePhase uint8
}

// MinFill is the smallest buffer a processor passes to Program.Fill,
// so a generator can always write a short loop body whole (an npb
// stream body is one OpRun).
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
	// The run cursor: while ops[opPos] is an OpRun, the element it
	// resumes at and the place in that element's body (a run* const).
	runElem, runPos uint8

	// Blocking-op scratch for the static event callbacks below: at most
	// one blocking miss / finish / quantum event is outstanding per CPU
	// (step returns after scheduling one), so a single set of fields
	// replaces the per-event closures the hot path used to allocate.
	pendAddr  topology.Addr
	pendStore bool
	pendAcc   sim.Time
	resumeFn  func() // allocated once: the controller's done callback
}

// opBufLen is the op-buffer size: 16 cache blocks of a streaming
// phase per Fill call.
const opBufLen = 16

// nsPerInstr is the average non-memory instruction cost: a ~200 MHz
// R10000 sustaining ~1 instruction per cycle.
const nsPerInstr sim.Time = 5

// Config parameterizes a CPU.
type Config struct {
	Node topology.NodeID
	// Quantum bounds how much local time the processor accumulates
	// before yielding to the event engine (default 20 us).
	Quantum sim.Time
}

// New builds a CPU bound to a controller and sync provider.
func New(eng *sim.Engine, ctrl *core.Controller, sync Sync, cfg Config) *CPU {
	c := &CPU{}
	c.Init(eng, ctrl, sync, cfg)
	return c
}

// Init initializes a zero CPU in place (machine.Machine slab-allocates
// its processors; see core.Controller.Init).
func (c *CPU) Init(eng *sim.Engine, ctrl *core.Controller, sync Sync, cfg Config) {
	if cfg.Quantum == 0 {
		cfg.Quantum = 20000
	}
	c.node = cfg.Node
	c.eng = eng
	c.ctrl = ctrl
	c.sync = sync
	c.params = timing.Default()
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
	c.runElem, c.runPos = 0, 0
	c.eng.After(0, c.resumeFn)
}

// step consumes operations until the processor must block or its
// quantum expires (checked after compute and send ops only).
//
// An OpRun goes through run, which looks its blocks up once and charges
// the later accesses as hits. That knowledge lasts one step call: no
// event runs inside a step, so only the run itself touches the cache
// meanwhile, but between steps other nodes' transactions may invalidate
// or downgrade the blocks, so a resumed run looks them up again.
func (c *CPU) step() {
	var acc sim.Time
	for {
		if c.opPos == c.opLen {
			c.opPos, c.opLen = 0, c.prog.Fill(c.ops[:])
			if c.opLen == 0 {
				c.pendAcc = acc
				c.eng.AtCall(c.eng.Now()+acc, cpuFinish, c)
				return
			}
		}
		op := &c.ops[c.opPos]
		if op.Kind == OpRun {
			var stop bool
			if acc, stop = c.run(op, acc); stop {
				return
			}
			continue
		}
		c.opPos++
		switch op.Kind {
		case OpCompute:
			c.stats.Instructions += op.N
			acc += sim.Time(op.N) * nsPerInstr

		case OpLoad, OpStore:
			var st cache.LineState
			if st, _, acc = c.access(op.Addr, op.Kind == OpStore, acc); st == cache.Invalid {
				return
			}
			continue

		case OpBarrier:
			c.blockOnSync(acc, func(done func()) { c.sync.Barrier(c.node, done) })
			return
		case OpRecv:
			src := op.Dst
			c.blockOnSync(acc, func(done func()) { c.sync.Recv(c.node, src, done) })
			return
		case OpAllReduce:
			n := op.N
			c.blockOnSync(acc, func(done func()) { c.sync.AllReduce(c.node, n, done) })
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
			c.yield(acc)
			return
		}
	}
}

// yield ends a step whose quantum has expired.
func (c *CPU) yield(acc sim.Time) {
	c.stats.BusyTime += acc
	c.eng.AtCall(c.eng.Now()+acc, cpuResume, c)
}

// access performs one load or store through the cache and charges its
// cost to acc. It returns the state the access left the block in,
// whether it hit, and acc; Invalid means the processor blocked on a
// coherence transaction and step must return.
func (c *CPU) access(addr topology.Addr, store bool, acc sim.Time) (cache.LineState, bool, sim.Time) {
	c.stats.Instructions++
	c.stats.MemAccesses++
	*c.class(addr)++
	var st cache.LineState
	var hit bool
	switch {
	case !addr.Shared():
		if st, hit = c.privateAccess(addr, store); hit {
			acc += c.params.CacheHit
		} else {
			c.stats.Misses++
			c.stats.PrivateMisses++
			acc += c.params.ProcOverhead + c.params.MemAccess
		}
	default:
		if st, hit = c.ctrl.Cache().Access(addr, store); !hit {
			c.stats.Misses++
			if addr.Home() == c.node {
				c.stats.LocalMisses++
			} else {
				c.stats.RemoteMisses++
			}
			// Block on the coherence transaction.
			c.stats.BusyTime += acc
			c.pendAddr, c.pendStore = addr, store
			c.eng.AtCall(c.eng.Now()+acc, cpuMiss, c)
			return cache.Invalid, false, acc
		}
		c.ctrl.NoteAccessHit(addr, store)
		acc += c.params.CacheHit
	}
	if store {
		st = cache.Modified
	}
	return st, hit, acc
}

// class returns the access counter for addr's memory class.
func (c *CPU) class(addr topology.Addr) *uint64 {
	switch {
	case !addr.Shared():
		return &c.stats.PrivateAccesses
	case addr.Home() == c.node:
		return &c.stats.LocalAccesses
	}
	return &c.stats.RemoteAccesses
}

// Places in an OpRun element's body, in issue order (CPU.runPos).
const (
	runPair uint8 = iota
	runLoad
	runCompute
	runStore
)

// run executes the OpRun op = &ops[opPos] from the run cursor on. It
// returns acc and whether step must return: the processor blocked on a
// miss (the cursor then points past the missed access) or its quantum
// expired. A finished run advances opPos.
//
// Each block's first access in the call, and a store while the call
// does not know the block Modified, take the normal path (access).
// Every other access is a hit that changes nothing but counters, which
// run adds in bulk. Two rules keep skipping exact when the pair and
// main blocks share a set: a normal access to the pair forgets the
// main block, so the main load that follows puts it back in front as
// element-wise execution would; and a miss forgets the other block,
// which the insert may have evicted from a one-way set.
//
//cenju4:hotpath
func (c *CPU) run(op *Op, acc sim.Time) (sim.Time, bool) {
	if c.ctrl.TracksValues() {
		panic("cpu: OpRun with a value tracker attached (runs skip NoteAccessHit; value-tracked programs must use element ops)")
	}
	k, pos := int(c.runElem), c.runPos
	wrap, paired := op.Body != RunStream, op.Body == RunWrapPaired
	every, since := int(op.StoreEvery), 0
	if every > 0 {
		since = (int(op.StorePhase) + k) % every
	}
	hitCost, compute := c.params.CacheHit, sim.Time(op.N)*nsPerInstr
	var mainSt, pairSt cache.LineState // what the call knows; Invalid: look up
	var mainHits, pairHits, instr uint64
	var hit, stop bool
elems:
	for ; k < int(op.Count); k, pos = k+1, runPair {
		store := false
		if every > 0 {
			if since++; since == every {
				since, store = 0, true
			}
		}
		off := topology.Addr(k * shmem.ElemSize)
		switch pos {
		case runPair:
			if !paired {
				// no pair access
			} else if pairSt != cache.Invalid {
				pairHits++
				acc += hitCost
			} else {
				pairSt, _, acc = c.access(op.Pair+off, false, acc) // private: never blocks
				mainSt = cache.Invalid
			}
			fallthrough
		case runLoad:
			if mainSt != cache.Invalid {
				mainHits++
				acc += hitCost
			} else if mainSt, hit, acc = c.access(op.Addr+off, false, acc); mainSt == cache.Invalid {
				pos, stop = runCompute, true
				break elems
			} else if !hit {
				pairSt = cache.Invalid
			}
			fallthrough
		case runCompute:
			if op.N > 0 && !(wrap && store) {
				instr += op.N
				if acc += compute; acc >= c.quantum {
					c.yield(acc)
					pos, stop = runStore, true
					break elems
				}
			}
			fallthrough
		case runStore:
			if !store {
				// no store on this element
			} else if mainSt == cache.Modified {
				mainHits++
				acc += hitCost
			} else if mainSt, hit, acc = c.access(op.Addr+off, true, acc); mainSt == cache.Invalid {
				k, pos, stop = k+1, runPair, true
				break elems
			} else if !hit {
				pairSt = cache.Invalid
			}
		}
	}
	c.stats.Instructions += mainHits + pairHits + instr
	c.stats.MemAccesses += mainHits + pairHits
	c.stats.PrivateAccesses += pairHits
	*c.class(op.Addr) += mainHits
	c.ctrl.Cache().Rehits(mainHits + pairHits)
	if stop {
		c.runElem, c.runPos = uint8(k), pos
	} else {
		c.opPos++
		c.runElem, c.runPos = 0, runPair
	}
	return acc, stop
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
