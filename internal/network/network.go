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
// determines which output ports lead to at least one destination — the
// "calculation in the switch" of the paper — and replicates the message
// into the corresponding crosspoint buffers, one replication slot per
// extra copy. The model decodes the structure once at the source into an
// ascending member list; a copy at stage k carries the run of members
// under its digit prefix, and splitting that run by digit k yields its
// output ports. Because a destination built from real nodes decodes to
// no node past the machine, the partition reaches exactly the switches
// and ports the per-port partial-match query would.
//
// Gathering. Replies to one multicast share a Gather identifier. Replies
// to home h from sources with equal digit suffixes converge in the same
// switches; each switch derives a wait pattern (which input ports will
// contribute) from the original multicast destination structure and its
// own position — one four-port partial-match query on the structure,
// directory.Dest.PortMask — absorbs all but the last contribution, and
// forwards one combined message. The home receives exactly one reply per
// multicast.
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
	"slices"

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

// gatherEntry is one group's merge state in one switch.
type gatherEntry struct {
	id       uint64 // msg.Gather.ID of the group
	latest   sim.Time
	merged   int
	waitMask uint8
}

type switchState struct {
	portBusy [topology.SwitchRadix]sim.Time
	// gathers holds the groups merging in this switch, in no order:
	// looked up by a linear scan on the group ID, appended on a group's
	// first contribution and swap-removed when its combined reply
	// leaves. A switch sees a handful of live groups at a time, so the
	// scan is a few compares of adjacent records where a map would hash.
	gathers []gatherEntry
}

// Network is a simulated multistage interconnection network.
type Network struct {
	eng      *sim.Engine
	cfg      Config
	params   timing.Params
	stages   int
	perStage int // switches per stage in the paper's network: 4^(S-1)
	// stride is how many switches each stage stores: min(perStage,
	// Nodes). On a machine with fewer nodes than the network has ports
	// switchFor never reaches the rest (TestSwitchIndexBound).
	stride   int
	switches []switchState // stage-major: [stage*stride + index]
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

	// deliverFn is the delivery callback, bound once in New: every
	// scheduled delivery passes the message itself as the event argument.
	deliverFn func(any)

	// Hot-path scratch, single-threaded like the engine: memberBuf backs
	// Send's destination expansion, and freeGroups recycles the
	// msg.Gather group records (a group retires when its combined reply
	// is delivered to the home).
	memberBuf  []topology.NodeID
	freeGroups []*msg.Gather
}

// runDelivery fires one delivery scheduled by deliver. The receiving
// node is m.Dest's single pointer: every delivered message — unicast,
// multicast copy, singlecast expansion, gathered reply, injected
// duplicate — is addressed to exactly one node.
//
//cenju4:hotpath
func (n *Network) runDelivery(m *msg.Message) {
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
	n.handlers[m.Dest.Node()](m)
	n.cfg.Pool.Put(m)
	if g != nil {
		n.freeGroups = append(n.freeGroups, g)
	}
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
	stride := min(perStage, cfg.Nodes)
	n := &Network{
		eng:      eng,
		cfg:      cfg,
		params:   timing.Default(),
		stages:   cfg.Stages,
		perStage: perStage,
		stride:   stride,
		switches: make([]switchState, cfg.Stages*stride),
		inject:   make([]sim.Time, cfg.Nodes),
		eject:    make([]sim.Time, cfg.Nodes),
		handlers: make([]Handler, cfg.Nodes),

		stageBusy: make([]sim.Time, cfg.Stages),
		stageHops: make([]uint64, cfg.Stages),

		memberBuf: make([]topology.NodeID, 0, cfg.Nodes),
	}
	n.deliverFn = func(x any) { n.runDelivery(x.(*msg.Message)) }
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
// coordinates dst[0..k-1] ++ src[k+1..S-1], i.e. dst's bits above digit
// k followed by src's bits below it. A multicast copy's switch is the
// same with dst any destination under the copy's prefix.
func (n *Network) switchFor(k, src, dst int) *switchState {
	return &n.switches[k*n.stride+n.switchIndex(k, src, dst)]
}

// switchIndex is switchFor's switch position within stage k.
func (n *Network) switchIndex(k, src, dst int) int {
	low := 2 * (n.stages - 1 - k)
	return dst>>(low+2)<<low | src&(1<<low-1)
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
	p := &n.params
	if data {
		return p.SwitchHopData, p.SerializeData
	}
	return p.SwitchHopCtl, p.SerializeCtl
}

// walkUnicast reserves the path src->dst starting at time t and returns
// the arrival time at the destination node.
func (n *Network) walkUnicast(src, dst int, t sim.Time, data bool) sim.Time {
	p := &n.params
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

// deliver schedules the handler invocation at time t for the one node
// m.Dest names. The message is released to the pool (if any) when the
// handler returns: delivery is the end of the network's ownership, and
// pooled handlers are required not to retain.
//
//cenju4:hotpath
func (n *Network) deliver(m *msg.Message, t sim.Time) {
	node := m.Dest.Node()
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
			n.eng.AtCall(t+1, n.deliverFn, cp)
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
	n.eng.AtCall(t, n.deliverFn, m)
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
	// memberBuf is scratch for this call only: every delivered message
	// carries its one destination in its own Dest, and handlers run from
	// the event queue, after Send returned.
	members := m.Dest.Members(n.memberBuf[:0], n.cfg.Nodes)
	switch {
	case len(members) == 0:
		panic("network: message with empty destination")
	case len(members) == 1:
		if m.Dest.IsPattern() {
			// A one-member bit pattern (all nodes of a 1-node machine)
			// travels as the singlecast it is.
			m.Dest = directory.Single(members[0])
		}
		t := n.walkUnicast(int(m.Src), int(members[0]), now, m.HasData)
		n.deliver(m, t)
	default:
		if n.cfg.Multicast {
			n.stats.Multicasts++
			if !m.Dest.IsPattern() {
				// A pointer list is in insertion order (at most four
				// entries); bit-pattern decodes are already ascending.
				slices.Sort(members)
			}
			n.walkMulticast(m, members, now)
		} else {
			// Singlecast expansion: the source injects one copy per
			// destination, serialized at its injection port.
			for _, d := range members {
				cp := n.cfg.Pool.Clone(m)
				cp.Dest = directory.Single(d)
				t := n.walkUnicast(int(m.Src), int(d), now, m.HasData)
				n.deliver(cp, t)
			}
		}
		// Fan-out complete: only the per-destination copies travel on.
		n.cfg.Pool.Put(m)
	}
}

// walkMulticast replicates m down the switch tree to the ascending
// destination list members.
func (n *Network) walkMulticast(m *msg.Message, members []topology.NodeID, t sim.Time) {
	p := &n.params
	_, ser := n.hopSer(m.HasData)
	start := n.claim(&n.inject[int(m.Src)], t, ser)
	n.injectBusy += ser
	n.mcStep(m, members, 0, start+p.NetFixed/2)
}

// mcStep advances one multicast copy through stage k. members are the
// copy's destinations, ascending, so they share digits 0..k-1 and the
// copy's switch follows from any of them. Splitting them into runs of
// equal digit k yields the output ports in ascending order, one
// replication slot per copy after the first — the ports whose extended
// prefix covers a destination, the switch's calculation in the paper.
//
// The list is the destination structure decoded below Nodes, and that
// loses nothing: a destination built from real nodes of a power-of-two
// machine decodes to no node >= Nodes, because each one-hot field of a
// bit pattern only holds values real nodes have (and a pointer is a
// real node). So no prefix leads only to nodes past the machine.
func (n *Network) mcStep(m *msg.Message, members []topology.NodeID, k int, t sim.Time) {
	p := &n.params
	hop, ser := n.hopSer(m.HasData)
	if k == n.stages {
		node := members[0]
		arr := n.claim(&n.eject[int(node)], t, ser) + p.NetFixed/2
		n.ejectBusy += ser
		cp := n.cfg.Pool.Clone(m)
		cp.Dest = directory.Single(node)
		n.deliver(cp, arr)
		return
	}
	sw := n.switchFor(k, int(m.Src), int(members[0]))
	shift := 2 * (n.stages - 1 - k)
	for copyIdx := 0; len(members) > 0; copyIdx++ {
		d := int(members[0]) >> shift & 3
		j := 1
		for j < len(members) && int(members[j])>>shift&3 == d {
			j++
		}
		depart := t + sim.Time(copyIdx)*p.ReplicateSlot
		start := n.claim(&sw.portBusy[d], depart, ser)
		n.stats.Hops++
		n.stageBusy[k] += ser
		n.stageHops[k]++
		if copyIdx > 0 {
			n.stats.Replications++
		}
		n.mcStep(m, members[:j], k+1, start+hop+n.stall(start))
		members = members[j:]
	}
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
	shift := 2 * (n.stages - 1 - k) // digit k; the suffix lies below it
	suffix := uint32(1)<<shift - 1
	return spec.PortMask(suffix&(1<<topology.NodeBits-1), uint32(src)&suffix, shift)
}

// walkGather advances one gather contribution from m.Src toward the
// home, merging with sibling contributions at every stage.
func (n *Network) walkGather(m *msg.Message, t sim.Time) {
	p := &n.params
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
		in := uint8(1) << n.digit(src, k)
		// Every contribution reaching this switch shares src's digit
		// suffix, hence this wait pattern: when it names only our input
		// port, no other contribution comes and no entry is needed.
		if wait := n.waitPattern(g.Spec, src, k); wait != in {
			// Contributions converge here from other ports too: merge.
			i := 0
			for i < len(sw.gathers) && sw.gathers[i].id != g.ID {
				i++
			}
			if i == len(sw.gathers) {
				sw.gathers = append(sw.gathers, gatherEntry{id: g.ID, waitMask: wait})
			}
			ge := &sw.gathers[i]
			ge.waitMask &^= in
			ge.merged += merged
			if t > ge.latest {
				ge.latest = t
			}
			if ge.waitMask != 0 {
				// Earlier contribution: absorbed here, removed from the
				// buffer (its counts live on in the gather entry).
				n.stats.GatherMerges++
				n.cfg.Pool.Put(m)
				return
			}
			merged, t = ge.merged, ge.latest
			last := len(sw.gathers) - 1
			sw.gathers[i] = sw.gathers[last]
			sw.gathers = sw.gathers[:last]
		}
		// Last (or sole) contribution: forward the combined message.
		t += p.GatherMerge
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
	n.deliver(m, t)
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
	return n.params.Traversal(n.stages, data)
}
