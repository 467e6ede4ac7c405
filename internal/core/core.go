// Package core implements the Cenju-4 cache coherence protocol — the
// paper's primary contribution. Each node's controller chip contains
// three modules:
//
//   - the master module issues read-shared, read-exclusive, ownership
//     and writeback requests for its processor's misses and receives the
//     replies (at most topology.MaxOutstanding in flight);
//   - the home module owns the directory for locally-homed blocks and
//     runs the appendix protocol: it replies directly when it can,
//     forwards to the dirty slave when it cannot, multicasts
//     invalidations, and — in the queuing protocol — appends requests
//     that hit a pending block to a memory-resident FIFO instead of
//     nacking them;
//   - the slave module services forwarded requests and invalidations
//     against the local cache, always replying to the home (never to the
//     master), which removes the two DASH nack races of Figure 8.
//
// The protocol runs in one of two modes. ModeQueuing is Cenju-4's
// starvation-free protocol: the home never nacks; blocked requests wait
// in a FIFO whose head is tied to the directory's reservation bit.
// ModeNack is the DASH-style comparison: requests against pending
// blocks are nacked and the master retries after a delay — under
// contention some masters retry unboundedly (Figure 6(a)), which the
// ablation benchmarks quantify.
//
// Deadlock prevention (one physical network) is modeled structurally:
// the master buffer holds at most MaxOutstanding replies, and the slave
// and home modules spill to bounded memory-resident overflow queues
// (64 KB each at 1024 nodes) whose occupancy the tests drive to the
// paper's sizing bound.
package core

import (
	"fmt"

	"cenju4/internal/cache"
	"cenju4/internal/directory"
	"cenju4/internal/memory"
	"cenju4/internal/metrics"
	"cenju4/internal/msg"
	"cenju4/internal/sim"
	"cenju4/internal/stats"
	"cenju4/internal/timing"
	"cenju4/internal/topology"
)

// Mode selects the coherence protocol variant.
type Mode uint8

const (
	// ModeQueuing is the Cenju-4 protocol: requests that hit a pending
	// block are queued in main memory; the home never nacks.
	ModeQueuing Mode = iota
	// ModeNack is the DASH-style comparison protocol: the home nacks
	// requests against pending blocks and masters retry.
	ModeNack
)

func (m Mode) String() string {
	if m == ModeQueuing {
		return "queuing"
	}
	return "nack"
}

// Fabric is the transport the controllers send remote messages through.
// network.Network implements it; unit tests use a direct loopback.
type Fabric interface {
	Send(m *msg.Message)
	AllocGather(spec directory.Dest, home topology.NodeID) *msg.Gather
	MulticastEnabled() bool
	Nodes() int
}

// Config parameterizes one node's controller.
type Config struct {
	Node  topology.NodeID
	Nodes int
	// Mode selects queuing (default) or nack protocol.
	Mode Mode
	// Cache overrides the cache geometry (default 1 MB, 2-way).
	Cache cache.Config
	// ModuleBufEntries is the on-chip buffer depth of the slave and home
	// modules before messages spill to the memory overflow queues.
	ModuleBufEntries int
	// SinglecastThreshold: invalidation target counts at or below this
	// use singlecast messages instead of multicast+gathering. The
	// hardware behavior is 1 (the paper notes a higher threshold was
	// possible but not implemented — an ablation benchmark explores it).
	SinglecastThreshold int
	// UpdateMode marks blocks handled by the update-type protocol the
	// paper proposes as future work (Section 4.2.3): stores write
	// through to the home, which multicasts the new data to a
	// third-level cache in every node's main memory; loads are then
	// satisfied locally. Nil disables the extension (the shipped
	// Cenju-4 behavior).
	UpdateMode func(topology.Addr) bool
	// Faults injects deliberate protocol bugs for the fuzzing
	// harness's self-tests (nil in production configurations).
	Faults *Faults
	// Pool, when non-nil, recycles Message records. It must be the same
	// pool the fabric uses (the network releases delivered messages back
	// to it); machine.Machine wires one pool through both. Nil keeps
	// plain allocation.
	Pool *msg.Pool
	// DenseDirectory selects the retained dense reference directory
	// layout (memory.NewDense) instead of the sparse paged store. The
	// two are observationally identical — the machine-scope digest
	// differential proves it — so this exists only for that proof and
	// for memory-cost comparisons.
	DenseDirectory bool
	// RequestTimeout arms the master's per-request retransmit timer:
	// a transaction whose reply has not arrived after
	// RequestTimeout << resends is re-sent (the home replays requests
	// idempotently; stale replies are discarded by sequence stamp).
	// Zero disables the recovery machinery entirely — the fault-free
	// configuration, with no timer events and no stamp checks.
	RequestTimeout sim.Time
	// RetransmitLimit bounds retransmit attempts per transaction when
	// RequestTimeout is armed (default 7). An exhausted transaction
	// stays stuck and surfaces in the machine watchdog's diagnosis.
	RetransmitLimit int
	// QueueCapOverride replaces the paper-sized capacity of the home's
	// memory-resident request and overflow queues (boundary tests
	// exercise exactly-full and full+1; 0 keeps
	// memory.RequestQueueCapacity(Nodes)).
	QueueCapOverride int
}

func (c Config) withDefaults() Config {
	if c.ModuleBufEntries == 0 {
		c.ModuleBufEntries = 4
	}
	if c.SinglecastThreshold == 0 {
		c.SinglecastThreshold = 1
	}
	if c.RequestTimeout > 0 && c.RetransmitLimit == 0 {
		c.RetransmitLimit = 7
	}
	return c
}

// RecoveryStats counts the fault-recovery machinery's activity. It is
// deliberately not part of Stats: machine digests serialize Stats
// field by field, and recovery counters are always zero in fault-free
// runs, so keeping them separate preserves every committed golden.
type RecoveryStats struct {
	// Retransmits counts timed-out requests re-sent to the home.
	Retransmits uint64
	// StaleReplies counts replies discarded by the sequence-stamp
	// check: duplicates, or replies to attempts already superseded.
	StaleReplies uint64
	// Exhausted counts transactions abandoned after RetransmitLimit
	// resends; each one leaves a permanently stuck MSHR slot that the
	// machine watchdog reports.
	Exhausted uint64
}

// Stats aggregates one controller's protocol activity.
type Stats struct {
	// Master side. Requests is indexed by msg.Kind — a flat count array
	// instead of a map, so the steady-state request path neither hashes
	// nor allocates and the snapshot copy in Stats() is a plain struct
	// copy.
	Requests   [msg.NumKinds]uint64
	Replies    uint64
	Nacks      uint64
	Retries    uint64
	MaxRetries int
	Writebacks uint64
	LatencySum sim.Time
	LatencyMax sim.Time
	Completed  uint64
	// Home side.
	HomeRequests   uint64
	HomeForwards   uint64
	Invalidations  uint64 // invalidation transactions (multicast or singlecast group)
	InvTargets     uint64 // individual invalidation targets
	QueuedRequests uint64
	QueueHighWater int
	// Slave side.
	SlaveRequests   uint64
	SlaveOverflowHW int
	HomeOverflowHW  int
	// Update-protocol extension.
	L3Hits       uint64 // loads satisfied by the local third-level cache
	UpdateWrites uint64 // write-through stores issued
}

// Controller is one node's coherence engine (master + home + slave).
type Controller struct {
	cfg    Config
	params timing.Params
	eng    *sim.Engine
	fab    Fabric

	cache *cache.Cache
	mem   *memory.Memory

	master masterModule
	home   homeModule
	slave  slaveModule

	// l3 tracks update-mode blocks present in this node's third-level
	// cache (main memory); allNodes caches the all-nodes multicast
	// destination for update-data fan-out.
	l3       map[topology.Addr]bool
	allNodes directory.Dest

	trace Tracer
	vals  *ValueTracker
	stats Stats
	rec   RecoveryStats

	// sendFn is the departure callback, bound once in Init: a send
	// schedules it with the message itself as the event argument, so
	// routing a message allocates nothing.
	sendFn func(any)

	// memberBuf is the home's scratch for decoding directory node maps
	// (dirty-owner lookup, invalidation fan-out). Decodes are consumed
	// before the next one begins, so one machine-sized buffer serves
	// every transaction without allocating.
	memberBuf []topology.NodeID
}

// New builds a controller for cfg.Node.
func New(eng *sim.Engine, fab Fabric, cfg Config) *Controller {
	c := &Controller{}
	c.Init(eng, fab, cfg)
	return c
}

// Init initializes a zero Controller in place. machine.Machine carves
// its controllers out of one contiguous slab and Inits each — a
// 1024-node build is one allocation instead of 1024, and the per-node
// hot state (module clocks, stat counters) lands in adjacent memory.
func (c *Controller) Init(eng *sim.Engine, fab Fabric, cfg Config) {
	cfg = cfg.withDefaults()
	c.cfg = cfg
	c.params = timing.Default()
	c.eng = eng
	c.fab = fab
	c.cache = cache.New(cfg.Cache)
	if cfg.DenseDirectory {
		c.mem = memory.NewDense(cfg.Node)
	} else {
		c.mem = memory.New(cfg.Node)
	}
	if cfg.UpdateMode != nil {
		c.l3 = make(map[topology.Addr]bool)
		c.allNodes = directory.AllNodes(cfg.Nodes)
	}
	c.memberBuf = make([]topology.NodeID, 0, cfg.Nodes)
	c.sendFn = func(x any) { c.depart(x.(*msg.Message)) }
	c.master.init(c)
	c.home.init(c)
	c.slave.init(c)
}

// updateBlock reports whether addr is handled by the update protocol.
func (c *Controller) updateBlock(addr topology.Addr) bool {
	return c.cfg.UpdateMode != nil && c.cfg.UpdateMode(addr)
}

// Node returns the controller's node ID.
func (c *Controller) Node() topology.NodeID { return c.cfg.Node }

// SetValueTracker attaches (or, with nil, removes) a data-value
// tracker. All controllers of one machine share a single tracker.
func (c *Controller) SetValueTracker(v *ValueTracker) { c.vals = v }

// TracksValues reports whether a value tracker is attached.
func (c *Controller) TracksValues() bool { return c.vals != nil }

// NoteAccessHit informs the value tracker of a processor cache hit on
// a shared block (the cpu model calls it on every such hit; the cache
// array has already applied any silent E->M upgrade). It is a no-op
// without a tracker.
func (c *Controller) NoteAccessHit(addr topology.Addr, store bool) {
	if c.vals == nil || !addr.Shared() {
		return
	}
	if store {
		c.vals.storeOrdered(c.cfg.Node, addr, c.eng.Now())
	} else {
		c.vals.loadObserved(c.cfg.Node, addr, c.eng.Now())
	}
}

// Cache exposes the node's secondary cache (the processor model drives
// hits against it directly).
func (c *Controller) Cache() *cache.Cache { return c.cache }

// Memory exposes the node's directory memory.
func (c *Controller) Memory() *memory.Memory { return c.mem }

// Stats returns a snapshot of the counters (queue high-water marks are
// refreshed on read).
func (c *Controller) Stats() Stats {
	s := c.stats
	s.QueueHighWater = c.home.queue.HighWater()
	s.SlaveOverflowHW = c.slave.overflow.HighWater()
	s.HomeOverflowHW = c.home.overflow.HighWater()
	return s
}

// Recovery returns a snapshot of the fault-recovery counters (all zero
// unless Config.RequestTimeout armed the machinery).
func (c *Controller) Recovery() RecoveryStats { return c.rec }

// MetricsInto aggregates this controller's activity into reg under the
// "core/" prefix. Counters add across nodes; the memory-resident FIFO
// watermarks (request queue, home/slave overflow) and retry/latency
// peaks fold in as maxima (Gauge.Peak), so one registry summarizes the
// whole machine no matter the visit order.
func (c *Controller) MetricsInto(reg *metrics.Registry) {
	// Numeric kind loop instead of ranging the map: the per-kind counts
	// land in name-sorted renderings anyway, but the additions themselves
	// must happen in a fixed order for the determinism contract.
	for k := msg.Kind(0); k <= msg.UpdateAck; k++ {
		if n := c.stats.Requests[k]; n > 0 {
			reg.Counter("core/requests/" + k.String()).Add(n)
		}
	}
	reg.Counter("core/replies").Add(c.stats.Replies)
	reg.Counter("core/nacks").Add(c.stats.Nacks)
	reg.Counter("core/retries").Add(c.stats.Retries)
	reg.Counter("core/writebacks").Add(c.stats.Writebacks)
	reg.Counter("core/completed").Add(c.stats.Completed)
	reg.Counter("core/home-requests").Add(c.stats.HomeRequests)
	reg.Counter("core/home-forwards").Add(c.stats.HomeForwards)
	reg.Counter("core/invalidations").Add(c.stats.Invalidations)
	reg.Counter("core/inv-targets").Add(c.stats.InvTargets)
	reg.Counter("core/queued-requests").Add(c.stats.QueuedRequests)
	reg.Counter("core/slave-requests").Add(c.stats.SlaveRequests)
	reg.Counter("core/l3-hits").Add(c.stats.L3Hits)
	reg.Counter("core/update-writes").Add(c.stats.UpdateWrites)
	reg.Gauge("core/max-retries").Peak(int64(c.stats.MaxRetries))
	reg.Gauge("core/latency-max-ns").Peak(int64(c.stats.LatencyMax))
	reg.Gauge("core/fifo/" + c.home.queue.Name()).Peak(int64(c.home.queue.HighWater()))
	reg.Gauge("core/fifo/" + c.home.overflow.Name()).Peak(int64(c.home.overflow.HighWater()))
	reg.Gauge("core/fifo/" + c.slave.overflow.Name()).Peak(int64(c.slave.overflow.HighWater()))
	// Recovery counters appear only when the machinery is armed, so
	// fault-free metric renderings are byte-identical to pre-fault
	// builds.
	if c.cfg.RequestTimeout > 0 {
		reg.Counter("core/recovery/retransmits").Add(c.rec.Retransmits)
		reg.Counter("core/recovery/stale-replies").Add(c.rec.StaleReplies)
		reg.Counter("core/recovery/exhausted").Add(c.rec.Exhausted)
	}
}

// Deliver is the network handler: it routes an incoming message to the
// destination module.
func (c *Controller) Deliver(m *msg.Message) {
	c.emit(TraceRecv, m)
	switch {
	case m.Kind.ToHome():
		c.home.handle(m)
	case m.Kind.ToSlave():
		c.slave.handle(m)
	case m.Kind.ToMaster():
		c.master.handle(m)
	default:
		panic(fmt.Sprintf("core: undeliverable message %v", m))
	}
}

// newMsg returns a pooled (or, without a pool, freshly allocated) copy
// of proto. Outbound messages are built through it so records recycled
// by the network's release points get reused here.
func (c *Controller) newMsg(proto msg.Message) *msg.Message {
	return c.cfg.Pool.New(proto)
}

// depart moves a message whose send delay has elapsed: destinations on
// this node are delivered directly (module-to-module transfers inside
// the controller chip do not use the network); everything else goes
// through the fabric. Gatherable replies always use the network so
// in-network combining stays uniform. The decision reads the message,
// which nothing touches between send and departure. On the local path
// the controller is the end of the message's life and releases it; on
// the fabric path the network owns the message from Send on.
//
//cenju4:hotpath
func (c *Controller) depart(m *msg.Message) {
	if m.Dest.SingleTo(c.cfg.Node) && m.Gather == nil {
		c.emit(TraceLocal, m)
		c.Deliver(m)
		c.cfg.Pool.Put(m)
	} else {
		c.emit(TraceSend, m)
		c.fab.Send(m)
	}
}

// send schedules m's departure delay from now.
//
//cenju4:hotpath
func (c *Controller) send(m *msg.Message, delay sim.Time) {
	c.eng.AtCall(c.eng.Now()+delay, c.sendFn, m)
}

// isLocal reports whether a message came from this node's own modules
// (local transfers skip the per-message controller processing cost that
// network arrivals pay — calibrated so a shared-local-clean load costs
// exactly DirAccess more than a private load, per Table 2).
func (c *Controller) isLocal(m *msg.Message) bool { return m.Src == c.cfg.Node }

// Request begins a coherence transaction for a shared-memory access
// that missed (or needs ownership). done runs when the access
// graduates. The address must be a DSM address.
func (c *Controller) Request(addr topology.Addr, store bool, done func()) {
	if !addr.Shared() {
		panic(fmt.Sprintf("core: Request on private address %v", addr))
	}
	c.master.request(addr.Block(), store, done)
}

// Outstanding returns the number of in-flight master transactions.
func (c *Controller) Outstanding() int { return c.master.outstanding }

// Latencies returns the per-request-kind transaction latency
// histograms, built on demand from the master's kind-indexed table.
// The returned histograms are live; callers must treat them as
// read-only.
func (c *Controller) Latencies() map[msg.Kind]*stats.Histogram {
	out := make(map[msg.Kind]*stats.Histogram)
	for k, h := range c.master.lat {
		if h != nil {
			out[msg.Kind(k)] = h
		}
	}
	return out
}

// QueueLen returns the current depth of the home's memory-resident
// request queue (for validators and tests).
func (c *Controller) QueueLen() int { return c.home.queue.Len() }

// PendingBlocks returns the number of locally-homed blocks with an
// in-flight transaction.
func (c *Controller) PendingBlocks() int { return len(c.home.pending) }

// EvictShared issues the writeback for a modified shared block that the
// processor displaced from the cache (e.g. when a private-memory line
// claimed its way). Writebacks expect no reply and occupy no MSHR slot.
func (c *Controller) EvictShared(addr topology.Addr) {
	if !addr.Shared() {
		panic(fmt.Sprintf("core: EvictShared on private address %v", addr))
	}
	c.master.writeback(addr.Block())
}

// module serializes message processing: a module starts a service by
// receiving a message and does not start another while busy.
type module struct {
	busy sim.Time
}

// admit returns the service start time for work arriving now and marks
// the module busy until start+cost.
func (m *module) admit(eng *sim.Engine, cost sim.Time) sim.Time {
	start := eng.Now()
	if m.busy > start {
		start = m.busy
	}
	m.busy = start + cost
	return start
}
