// Package network models the Cenju-4 multistage interconnection
// network: columns of 4x4 crossbar switches with a unique path between
// any two nodes (hence in-order delivery), crosspoint-buffer output
// contention with virtual cut-through flow control, and the two features
// the DSM depends on — multicast replication of invalidation requests
// and in-network gathering of their replies.
//
// Geometry. A machine of N nodes uses S = topology.StagesForNodes(N)
// switch columns (2, 4 or 6 — the configurations of the paper), each
// with 4^(S-1) switches. Routing is butterfly-style: stage k replaces
// radix-4 digit k of the source address with digit k of the destination,
// so a message from s to d at stage k sits in the switch whose
// coordinates are d[0..k-1] ++ s[k+1..S-1] and leaves on output port
// d[k]. Every src-dst pair crosses exactly S switches.
//
// Multicast. An invalidation carries the directory's own destination
// structure (pointer list or bit-pattern). At each stage the switch
// computes which output ports lead to at least one destination — a
// partial-match query on the structure (directory.Dest.AnyMatch), the
// "calculation in the switch" of the paper — and replicates the message
// into the corresponding crosspoint buffers, one replication slot per
// extra copy.
//
// Gathering. Replies to one multicast share a Gather identifier. Replies
// to home h from sources with equal digit suffixes converge in the same
// switches; each switch derives a wait pattern (which input ports will
// contribute) from the original multicast destination structure and its
// own position, absorbs all but the last contribution, and forwards one
// combined message. The home receives exactly one reply per multicast.
//
// Timing. Latency accumulates per hop from timing.Params; each switch
// output port and each node injection/ejection port is a serialized
// resource, which is what produces the linear no-multicast curve and the
// hot-spot effects of Figure 10. Paths are computed when the message is
// sent (port reservations are made immediately), and only the deliveries
// are scheduled as events; this keeps large runs cheap while preserving
// per-pair ordering and determinism.
package network

import (
	"fmt"

	"cenju4/internal/directory"
	"cenju4/internal/faults"
	"cenju4/internal/metrics"
	"cenju4/internal/msg"
	"cenju4/internal/sim"
	"cenju4/internal/timing"
	"cenju4/internal/topology"
)

// Handler receives messages delivered to a node.
type Handler func(*msg.Message)

// Config parameterizes a network instance.
type Config struct {
	// Nodes is the number of attached nodes (power of two, <= 1024).
	Nodes int
	// Stages overrides the stage count; 0 selects the paper's value for
	// Nodes (2, 4 or 6).
	Stages int
	// Multicast enables the multicast and gathering functions. When
	// false the protocol layer falls back to singlecast invalidations
	// and individually delivered acknowledgements (the paper's
	// estimated comparison in Figure 10).
	Multicast bool
	// Params supplies latency constants; zero value means timing.Default().
	Params timing.Params
	// Pool, when non-nil, recycles Message records: the network releases
	// every message it finishes with (delivered to a handler, absorbed by
	// gathering, or expanded into copies) back to the pool. Enable it
	// only when every attached handler finishes with its messages before
	// returning — machine.Machine does; handlers that retain delivered
	// messages must leave Pool nil.
	Pool *msg.Pool
	// Injector, when non-nil, applies a compiled fault plan to this
	// network: messages are checksum-sealed at entry and verified at
	// delivery, and the injector decides per endpoint delivery whether
	// to drop, duplicate, delay or corrupt (see internal/faults). A nil
	// Injector leaves the fault-free hot path untouched beyond one
	// pointer test per delivery.
	Injector *faults.Injector
}

func (c Config) withDefaults() Config {
	if c.Stages == 0 {
		c.Stages = topology.StagesForNodes(c.Nodes)
	}
	if c.Params == (timing.Params{}) {
		c.Params = timing.Default()
	}
	return c
}

// Stats aggregates network activity counters.
type Stats struct {
	Messages   uint64 // Send calls
	Deliveries uint64 // endpoint deliveries (multicast copies count individually)
	Hops       uint64 // switch traversals
	Multicasts uint64 // multicast Send calls
	// Replications counts extra message copies fanned out into crosspoint
	// buffers by the multicast function (copies beyond the first at each
	// switch — each one occupies a replication slot).
	Replications uint64
	Gathers      uint64 // gather groups allocated
	GatherMerges uint64 // replies absorbed inside the network
	PeakGathers  int    // peak concurrently active gather groups
	DataMessages uint64 // messages carrying a block payload
	// ContendedHops counts switch-port claims that had to wait for the
	// port (the message sat in a crosspoint buffer).
	ContendedHops uint64
	// MaxPortBacklog is the longest such wait — a proxy for the deepest
	// crosspoint-buffer residence time the run produced.
	MaxPortBacklog sim.Time
}

type gatherEntry struct {
	waitMask uint8
	latest   sim.Time
	merged   int
}

type switchState struct {
	portBusy [topology.SwitchRadix]sim.Time
	// g1ID/g1 are a one-entry cache in front of the gathers map: reply
	// gathering keeps at most a handful of groups live per switch (peak
	// concurrency is tracked in Stats.PeakGathers), so almost every
	// lookup on the reply hot path hits here without touching the map.
	g1ID    uint64
	g1      *gatherEntry
	gathers map[uint64]*gatherEntry
}

// Network is a simulated multistage interconnection network.
type Network struct {
	eng      *sim.Engine
	cfg      Config
	stages   int
	perStage int
	switches []switchState // stage-major: [stage*perStage + index]
	inject   []sim.Time    // per-node injection port busy-until
	eject    []sim.Time    // per-node ejection port busy-until
	handlers []Handler
	stats    Stats

	// Per-stage accumulators behind Network.MetricsInto: total time the
	// stage's output ports were held (serialization reservations) and
	// switch traversals through the stage.
	stageBusy  []sim.Time
	stageHops  []uint64
	injectBusy sim.Time // summed injection-port hold time, all nodes
	ejectBusy  sim.Time // summed ejection-port hold time, all nodes

	nextGatherID  uint64
	activeGathers int

	// Hot-path scratch pools, all single-threaded like the engine:
	// memberBuf backs Send's destination expansion, freeDeliveries
	// recycles the per-event delivery records handed to sim.AtCall,
	// freeGathers recycles per-(gather, switch) merge entries, and
	// freeGroups recycles the msg.Gather group records themselves (a
	// group retires when its combined reply is delivered to the home).
	memberBuf      []topology.NodeID
	freeDeliveries []*deliveryEvent
	freeGathers    []*gatherEntry
	freeGroups     []*msg.Gather
}

// deliveryEvent carries one scheduled handler invocation through the event
// queue. Together with runDelivery and Engine.AtCall it replaces the
// closure the network used to allocate per delivered message.
type deliveryEvent struct {
	n    *Network
	m    *msg.Message
	node topology.NodeID
}

// runDelivery fires one delivery: the record is recycled before the
// handler runs, so handlers that send (and thus deliver) more messages
// reuse it immediately.
//
//cenju4:hotpath
func runDelivery(x any) {
	d := x.(*deliveryEvent)
	n, m, node := d.n, d.m, d.node
	d.m = nil
	n.freeDeliveries = append(n.freeDeliveries, d)
	// A delivered gathered reply (InvAck/UpdateAck — never the Invalidate
	// or UpdateData multicast, whose copies merely carry the group as
	// metadata) is its group's single combined arrival: after the handler
	// consumes it the group record is dead and can be recycled. Handlers
	// must not retain it, the same contract the message pool imposes.
	var g *msg.Gather
	if m.Gather != nil && (m.Kind == msg.InvAck || m.Kind == msg.UpdateAck) {
		g = m.Gather
	}
	// Under fault injection every message was sealed at network entry;
	// a failed verification here is an injected corruption surfacing as
	// a detected loss — the message is discarded and (for recoverable
	// kinds) the master's timeout repairs it.
	if inj := n.cfg.Injector; inj != nil && !m.SumOK() {
		inj.NoteDetectedDrop()
		n.cfg.Pool.Put(m)
		if g != nil {
			n.freeGroups = append(n.freeGroups, g)
		}
		return
	}
	n.handlers[node](m)
	n.cfg.Pool.Put(m)
	if g != nil {
		n.freeGroups = append(n.freeGroups, g)
	}
}

// allocDelivery returns a delivery record bound to n.
func (n *Network) allocDelivery() *deliveryEvent {
	if k := len(n.freeDeliveries); k > 0 {
		d := n.freeDeliveries[k-1]
		n.freeDeliveries[k-1] = nil
		n.freeDeliveries = n.freeDeliveries[:k-1]
		return d
	}
	//cenju4:alloc-ok pool miss grows the steady-state working set once, then recycles
	return &deliveryEvent{n: n}
}

// allocGatherEntry returns a zeroed gather entry.
func (n *Network) allocGatherEntry() *gatherEntry {
	if k := len(n.freeGathers); k > 0 {
		ge := n.freeGathers[k-1]
		n.freeGathers[k-1] = nil
		n.freeGathers = n.freeGathers[:k-1]
		*ge = gatherEntry{}
		return ge
	}
	//cenju4:alloc-ok pool miss grows the steady-state working set once, then recycles
	return &gatherEntry{}
}

// New builds a network. The engine drives delivery events.
func New(eng *sim.Engine, cfg Config) *Network {
	cfg = cfg.withDefaults()
	if !topology.ValidNodeCount(cfg.Nodes) {
		panic(fmt.Sprintf("network: invalid node count %d", cfg.Nodes))
	}
	if cfg.Stages < 1 || 2*cfg.Stages > 32 {
		panic(fmt.Sprintf("network: invalid stage count %d", cfg.Stages))
	}
	if 1<<(2*cfg.Stages) < cfg.Nodes {
		panic(fmt.Sprintf("network: %d stages cannot address %d nodes", cfg.Stages, cfg.Nodes))
	}
	perStage := 1 << (2 * (cfg.Stages - 1))
	n := &Network{
		eng:      eng,
		cfg:      cfg,
		stages:   cfg.Stages,
		perStage: perStage,
		switches: make([]switchState, cfg.Stages*perStage),
		inject:   make([]sim.Time, cfg.Nodes),
		eject:    make([]sim.Time, cfg.Nodes),
		handlers: make([]Handler, cfg.Nodes),

		stageBusy: make([]sim.Time, cfg.Stages),
		stageHops: make([]uint64, cfg.Stages),

		memberBuf: make([]topology.NodeID, 0, cfg.Nodes),
	}
	return n
}

// Stages returns the stage count.
func (n *Network) Stages() int { return n.stages }

// Nodes returns the attached node count.
func (n *Network) Nodes() int { return n.cfg.Nodes }

// MulticastEnabled reports whether the multicast/gathering functions are on.
func (n *Network) MulticastEnabled() bool { return n.cfg.Multicast }

// Stats returns a snapshot of the activity counters.
func (n *Network) Stats() Stats { return n.stats }

// Attach registers the delivery handler for a node. Must be called for
// every node before traffic reaches it.
func (n *Network) Attach(node topology.NodeID, h Handler) {
	n.handlers[node] = h
}

// digit returns radix-4 digit k (0 = most significant of the
// stage-count-wide address) of node x.
func (n *Network) digit(x int, k int) int {
	return x >> (2 * (n.stages - 1 - k)) & 3
}

// switchFor returns the switch at stage k on the path from src to dst:
// coordinates dst[0..k-1] ++ src[k+1..S-1].
func (n *Network) switchFor(k, src, dst int) *switchState {
	idx := 0
	for j := 0; j < k; j++ {
		idx = idx<<2 | n.digit(dst, j)
	}
	for j := k + 1; j < n.stages; j++ {
		idx = idx<<2 | n.digit(src, j)
	}
	return &n.switches[k*n.perStage+idx]
}

// claim serializes use of a port resource: the transfer starts when both
// the message has arrived (t) and the port is free; the port then stays
// busy for ser. Returns the start time and records contention.
func (n *Network) claim(busy *sim.Time, t, ser sim.Time) sim.Time {
	start := t
	if *busy > start {
		start = *busy
		if wait := start - t; wait > 0 {
			n.stats.ContendedHops++
			if wait > n.stats.MaxPortBacklog {
				n.stats.MaxPortBacklog = wait
			}
		}
	}
	*busy = start + ser
	return start
}

// stall returns the injected extra latency for the stage traversal
// starting at t (zero without an injector — the fault-free fast path).
func (n *Network) stall(t sim.Time) sim.Time {
	if inj := n.cfg.Injector; inj != nil {
		return inj.Stall(t)
	}
	return 0
}

func (n *Network) hopSer(data bool) (hop, ser sim.Time) {
	p := n.cfg.Params
	if data {
		return p.SwitchHopData, p.SerializeData
	}
	return p.SwitchHopCtl, p.SerializeCtl
}

// walkUnicast reserves the path src->dst starting at time t and returns
// the arrival time at the destination node.
func (n *Network) walkUnicast(src, dst int, t sim.Time, data bool) sim.Time {
	p := n.cfg.Params
	hop, ser := n.hopSer(data)
	t = n.claim(&n.inject[src], t, ser) + p.NetFixed/2
	n.injectBusy += ser
	for k := 0; k < n.stages; k++ {
		sw := n.switchFor(k, src, dst)
		port := n.digit(dst, k)
		start := n.claim(&sw.portBusy[port], t, ser)
		t = start + hop + n.stall(start)
		n.stats.Hops++
		n.stageBusy[k] += ser
		n.stageHops[k]++
	}
	n.ejectBusy += ser
	return n.claim(&n.eject[dst], t, ser) + p.NetFixed/2
}

// deliver schedules the handler invocation for node at time t. The
// message is released to the pool (if any) when the handler returns:
// delivery is the end of the network's ownership, and pooled handlers
// are required not to retain.
//
//cenju4:hotpath
func (n *Network) deliver(m *msg.Message, node topology.NodeID, t sim.Time) {
	if n.handlers[node] == nil {
		panic(fmt.Sprintf("network: no handler attached at %v", node))
	}
	if inj := n.cfg.Injector; inj != nil {
		act, at := inj.Arrival(m.Kind, m.Src, node, m.Gather != nil, t)
		t = at
		switch act {
		case faults.DropMsg:
			// Injected loss: the message vanishes between the wire and
			// the handler. Not counted as a delivery.
			n.cfg.Pool.Put(m)
			return
		case faults.DupMsg:
			// Deliver the original at t and a clone one tick later (the
			// injector's pair floor keeps later traffic behind both).
			cp := n.cfg.Pool.Clone(m)
			n.stats.Deliveries++
			dd := n.allocDelivery()
			dd.m, dd.node = cp, node
			n.eng.AtCall(t+1, runDelivery, dd)
		case faults.CorruptMsg:
			// Flip one bit — payload when there is one, the checksum
			// field itself otherwise. runDelivery detects and discards.
			if m.HasData {
				m.Val ^= 1
			} else {
				m.Sum ^= 1
			}
		case faults.Pass:
			// Untouched (though possibly delayed via at).
		}
	}
	n.stats.Deliveries++
	d := n.allocDelivery()
	d.m, d.node = m, node
	n.eng.AtCall(t, runDelivery, d)
}

// Send injects a message. Singlecast messages go to the single node in
// m.Dest; multi-destination messages are multicast (or expanded to
// singlecasts when multicast is disabled); messages with a Gather are
// combined in-network on their way to the gather's home node.
//
//cenju4:hotpath
func (n *Network) Send(m *msg.Message) {
	now := n.eng.Now()
	m.SentAt = now
	if n.cfg.Injector != nil {
		m.Seal()
	}
	n.stats.Messages++
	if m.HasData {
		n.stats.DataMessages++
	}
	if m.GatherContribution() {
		n.walkGather(m, now)
		return
	}
	// memberBuf is scratch for this call only: deliveries copy the one
	// NodeID they need, and handlers run from the event queue, after
	// Send returned.
	members := m.Dest.Members(n.memberBuf[:0], n.cfg.Nodes)
	switch {
	case len(members) == 0:
		panic("network: message with empty destination")
	case len(members) == 1:
		t := n.walkUnicast(int(m.Src), int(members[0]), now, m.HasData)
		n.deliver(m, members[0], t)
	default:
		if n.cfg.Multicast {
			n.stats.Multicasts++
			n.walkMulticast(m, now)
		} else {
			// Singlecast expansion: the source injects one copy per
			// destination, serialized at its injection port.
			for _, d := range members {
				cp := n.cfg.Pool.Clone(m)
				cp.Dest = directory.Single(d)
				t := n.walkUnicast(int(m.Src), int(d), now, m.HasData)
				n.deliver(cp, d, t)
			}
		}
		// Fan-out complete: only the per-destination copies travel on.
		n.cfg.Pool.Put(m)
	}
}

// destHasPrefix reports whether any destination's address (stage-width)
// begins with the given digit prefix.
func (n *Network) destHasPrefix(d directory.Dest, prefix, digits int) bool {
	totalBits := 2 * n.stages
	shift := totalBits - 2*digits
	mask := uint32(1)<<(2*digits) - 1
	value := uint32(prefix)
	if shift >= 32 {
		return false
	}
	mask <<= shift
	value <<= shift
	if value>>topology.NodeBits != 0 {
		return false // prefix requires address bits above the node width
	}
	// Bits of the mask above the node width are satisfied by every real
	// node (their address bits there are zero), so clip the mask.
	mask &= 1<<topology.NodeBits - 1
	return d.AnyMatch(mask, value)
}

// walkMulticast replicates m down the switch tree. At stage k a copy
// identified by its chosen digit prefix fans out to every port whose
// extended prefix still covers a destination.
func (n *Network) walkMulticast(m *msg.Message, t sim.Time) {
	p := n.cfg.Params
	_, ser := n.hopSer(m.HasData)
	start := n.claim(&n.inject[int(m.Src)], t, ser)
	n.injectBusy += ser
	n.mcStep(m, 0, 0, start+p.NetFixed/2)
}

func (n *Network) mcStep(m *msg.Message, k, prefix int, t sim.Time) {
	p := n.cfg.Params
	if k == n.stages {
		node := topology.NodeID(prefix)
		if int(node) >= n.cfg.Nodes {
			return
		}
		_, ser := n.hopSer(m.HasData)
		arr := n.claim(&n.eject[int(node)], t, ser) + p.NetFixed/2
		n.ejectBusy += ser
		cp := n.cfg.Pool.Clone(m)
		cp.Dest = directory.Single(node)
		n.deliver(cp, node, arr)
		return
	}
	hop, ser := n.hopSer(m.HasData)
	sw := n.mcSwitch(m, k, prefix)
	copyIdx := 0
	for d := 0; d < topology.SwitchRadix; d++ {
		if !n.destHasPrefix(m.Dest, prefix<<2|d, k+1) {
			continue
		}
		depart := t + sim.Time(copyIdx)*p.ReplicateSlot
		start := n.claim(&sw.portBusy[d], depart, ser)
		n.stats.Hops++
		n.stageBusy[k] += ser
		n.stageHops[k]++
		if copyIdx > 0 {
			n.stats.Replications++
		}
		n.mcStep(m, k+1, prefix<<2|d, start+hop+n.stall(start))
		copyIdx++
	}
}

// mcSwitch returns the switch a multicast copy occupies at stage k:
// coordinates prefix ++ src[k+1..S-1].
func (n *Network) mcSwitch(m *msg.Message, k, prefix int) *switchState {
	src := int(m.Src)
	idx := prefix
	for j := k + 1; j < n.stages; j++ {
		idx = idx<<2 | n.digit(src, j)
	}
	return &n.switches[k*n.perStage+idx]
}

// AllocGather creates a gather group for a multicast with the given
// destination structure, collecting at home. The caller attaches the
// returned Gather to every reply of the group.
//
//cenju4:hotpath
func (n *Network) AllocGather(spec directory.Dest, home topology.NodeID) *msg.Gather {
	n.nextGatherID++
	n.stats.Gathers++
	n.activeGathers++
	if n.activeGathers > n.stats.PeakGathers {
		n.stats.PeakGathers = n.activeGathers
	}
	if k := len(n.freeGroups); k > 0 {
		g := n.freeGroups[k-1]
		n.freeGroups[k-1] = nil
		n.freeGroups = n.freeGroups[:k-1]
		*g = msg.Gather{ID: n.nextGatherID, Spec: spec, Home: home}
		return g
	}
	//cenju4:alloc-ok pool miss grows the steady-state working set once, then recycles
	return &msg.Gather{ID: n.nextGatherID, Spec: spec, Home: home}
}

// waitPattern computes, for the switch at reply-stage k on the path of a
// reply from src to the gather home, the set of input ports that will
// carry contributions of this gather: port p is expected when some
// multicast destination has digit k equal to p and the same digit suffix
// as src (those are exactly the members whose replies converge here).
func (n *Network) waitPattern(spec directory.Dest, src, k int) uint8 {
	w := 2 * (n.stages - k) // bits covering digits k..S-1
	suffixBits := uint32(src) & (1<<(w-2) - 1)
	var mask uint32 = 1<<w - 1
	if w > topology.NodeBits {
		mask = 1<<topology.NodeBits - 1
	}
	var pat uint8
	for p := 0; p < topology.SwitchRadix; p++ {
		value := uint32(p)<<(w-2) | suffixBits
		if value>>topology.NodeBits != 0 {
			continue
		}
		if spec.AnyMatch(mask, value) {
			pat |= 1 << p
		}
	}
	return pat
}

// walkGather advances one gather contribution from m.Src toward the
// home, merging with sibling contributions at every stage.
func (n *Network) walkGather(m *msg.Message, t sim.Time) {
	p := n.cfg.Params
	hop, ser := n.hopSer(m.HasData)
	g := m.Gather
	if g.Merged == 0 {
		g.Merged = 1
	}
	src, home := int(m.Src), int(g.Home)
	t = n.claim(&n.inject[src], t, ser) + p.NetFixed/2
	n.injectBusy += ser
	merged := g.Merged
	for k := 0; k < n.stages; k++ {
		sw := n.switchFor(k, src, home)
		var ge *gatherEntry
		switch {
		case sw.g1 != nil && sw.g1ID == g.ID:
			ge = sw.g1
		case sw.gathers != nil:
			ge = sw.gathers[g.ID]
		}
		if ge == nil {
			ge = n.allocGatherEntry()
			ge.waitMask = n.waitPattern(g.Spec, src, k)
			if sw.g1 == nil {
				sw.g1, sw.g1ID = ge, g.ID
			} else {
				if sw.gathers == nil {
					//cenju4:alloc-ok created on first cache overflow, retained for the network's lifetime
					sw.gathers = make(map[uint64]*gatherEntry)
				}
				sw.gathers[g.ID] = ge
			}
		}
		inPort := n.digit(src, k)
		ge.waitMask &^= 1 << inPort
		ge.merged += merged
		if t > ge.latest {
			ge.latest = t
		}
		if ge.waitMask != 0 {
			// Earlier contribution: absorbed here, removed from the buffer
			// (its counts live on in the gather entry).
			n.stats.GatherMerges++
			n.cfg.Pool.Put(m)
			return
		}
		// Last contribution: forward the combined message.
		merged = ge.merged
		t = ge.latest + p.GatherMerge
		if sw.g1 == ge {
			sw.g1 = nil
		} else {
			delete(sw.gathers, g.ID)
		}
		n.freeGathers = append(n.freeGathers, ge)
		port := n.digit(home, k)
		start := n.claim(&sw.portBusy[port], t, ser)
		t = start + hop + n.stall(start)
		n.stats.Hops++
		n.stageBusy[k] += ser
		n.stageHops[k]++
	}
	n.ejectBusy += ser
	t = n.claim(&n.eject[home], t, ser) + p.NetFixed/2
	g.Merged = merged
	n.activeGathers--
	n.deliver(m, topology.NodeID(home), t)
}

// ActiveGathers returns the number of gather groups currently in
// flight — allocated but not yet retired by their combined delivery.
// Nonzero at quiescence means replies went missing inside a combining
// tree; the machine watchdog reports it.
func (n *Network) ActiveGathers() int { return n.activeGathers }

// Injector returns the compiled fault plan driving this network, nil
// in fault-free runs.
func (n *Network) Injector() *faults.Injector { return n.cfg.Injector }

// MetricsInto records the network's activity counters and per-stage
// output-port utilization into reg under the "net/" prefix. Utilization
// is reported in permille of stage port-time (ports × elapsed virtual
// time), using the engine's current virtual clock — call it at the end
// of a run.
func (n *Network) MetricsInto(reg *metrics.Registry) {
	s := n.stats
	reg.Counter("net/messages").Add(s.Messages)
	reg.Counter("net/deliveries").Add(s.Deliveries)
	reg.Counter("net/hops").Add(s.Hops)
	reg.Counter("net/multicasts").Add(s.Multicasts)
	reg.Counter("net/replications").Add(s.Replications)
	reg.Counter("net/gathers").Add(s.Gathers)
	reg.Counter("net/gather-merges").Add(s.GatherMerges)
	reg.Counter("net/data-messages").Add(s.DataMessages)
	reg.Counter("net/contended-hops").Add(s.ContendedHops)
	reg.Gauge("net/peak-gathers").Set(int64(s.PeakGathers))
	reg.Gauge("net/max-port-backlog-ns").Set(int64(s.MaxPortBacklog))
	elapsed := n.eng.Now()
	for k := 0; k < n.stages; k++ {
		reg.Counter(fmt.Sprintf("net/stage%d/hops", k)).Add(n.stageHops[k])
		reg.Counter(fmt.Sprintf("net/stage%d/port-busy-ns", k)).Add(uint64(n.stageBusy[k]))
		if elapsed > 0 {
			portTime := uint64(elapsed) * uint64(n.perStage) * topology.SwitchRadix
			reg.Gauge(fmt.Sprintf("net/stage%d/util-permille", k)).
				Set(int64(uint64(n.stageBusy[k]) * 1000 / portTime))
		}
	}
	reg.Counter("net/inject-busy-ns").Add(uint64(n.injectBusy))
	reg.Counter("net/eject-busy-ns").Add(uint64(n.ejectBusy))
}

// UncontendedLatency returns the zero-load latency of one traversal —
// useful for calibration tests and the analytic comparisons in the
// experiment harness.
func (n *Network) UncontendedLatency(data bool) sim.Time {
	return n.cfg.Params.Traversal(n.stages, data)
}
