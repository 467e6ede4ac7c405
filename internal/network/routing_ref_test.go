package network

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cenju4/internal/directory"
	"cenju4/internal/msg"
	"cenju4/internal/sim"
	"cenju4/internal/topology"
)

// refRouter is the reference router: the network's routing as it was
// before the member partition — a per-digit loop for switch
// coordinates, one AnyMatch query per port at every multicast tree node,
// four AnyMatch calls per gather wait pattern, and gather entries kept
// in a map keyed by (switch, group). It drives the network's own ports,
// counters and delivery, so a difference in deliveries or Stats is a
// routing difference.
type refRouter struct {
	n       *Network
	gathers map[refGatherKey]*refGatherEntry
}

type refGatherKey struct {
	sw *switchState
	id uint64
}

type refGatherEntry struct {
	waitMask uint8
	latest   sim.Time
	merged   int
}

func newRefRouter(n *Network) *refRouter {
	return &refRouter{n: n, gathers: map[refGatherKey]*refGatherEntry{}}
}

func (r *refRouter) switchFor(k, src, dst int) *switchState {
	n := r.n
	idx := 0
	for j := 0; j < k; j++ {
		idx = idx<<2 | n.digit(dst, j)
	}
	for j := k + 1; j < n.stages; j++ {
		idx = idx<<2 | n.digit(src, j)
	}
	return &n.switches[k*n.perStage+idx]
}

func (r *refRouter) send(m *msg.Message) {
	n := r.n
	now := n.eng.Now()
	m.SentAt = now
	n.stats.Messages++
	if m.HasData {
		n.stats.DataMessages++
	}
	if m.GatherContribution() {
		r.walkGather(m, now)
		return
	}
	members := m.Dest.Members(nil, n.cfg.Nodes)
	switch {
	case len(members) == 0:
		panic("ref: message with empty destination")
	case len(members) == 1:
		t := n.walkUnicast(int(m.Src), int(members[0]), now, m.HasData)
		n.deliver(m, t)
	default:
		if n.cfg.Multicast {
			n.stats.Multicasts++
			_, ser := n.hopSer(m.HasData)
			start := n.claim(&n.inject[int(m.Src)], now, ser)
			n.injectBusy += ser
			r.mcStep(m, 0, 0, start+n.params.NetFixed/2)
		} else {
			for _, d := range members {
				cp := n.cfg.Pool.Clone(m)
				cp.Dest = directory.Single(d)
				t := n.walkUnicast(int(m.Src), int(d), now, m.HasData)
				n.deliver(cp, t)
			}
		}
		n.cfg.Pool.Put(m)
	}
}

func (r *refRouter) destHasPrefix(d directory.Dest, prefix, digits int) bool {
	shift := 2*r.n.stages - 2*digits
	mask := uint32(1)<<(2*digits) - 1
	value := uint32(prefix)
	if shift >= 32 {
		return false
	}
	mask <<= shift
	value <<= shift
	if value>>topology.NodeBits != 0 {
		return false
	}
	mask &= 1<<topology.NodeBits - 1
	return d.AnyMatch(mask, value)
}

func (r *refRouter) mcStep(m *msg.Message, k, prefix int, t sim.Time) {
	n := r.n
	p := n.params
	hop, ser := n.hopSer(m.HasData)
	if k == n.stages {
		node := topology.NodeID(prefix)
		if int(node) >= n.cfg.Nodes {
			return
		}
		arr := n.claim(&n.eject[int(node)], t, ser) + p.NetFixed/2
		n.ejectBusy += ser
		cp := n.cfg.Pool.Clone(m)
		cp.Dest = directory.Single(node)
		n.deliver(cp, arr)
		return
	}
	src := int(m.Src)
	idx := prefix
	for j := k + 1; j < n.stages; j++ {
		idx = idx<<2 | n.digit(src, j)
	}
	sw := &n.switches[k*n.perStage+idx]
	copyIdx := 0
	for d := 0; d < topology.SwitchRadix; d++ {
		if !r.destHasPrefix(m.Dest, prefix<<2|d, k+1) {
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
		r.mcStep(m, k+1, prefix<<2|d, start+hop+n.stall(start))
		copyIdx++
	}
}

func (r *refRouter) waitPattern(spec directory.Dest, src, k int) uint8 {
	w := 2 * (r.n.stages - k)
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

func (r *refRouter) walkGather(m *msg.Message, t sim.Time) {
	n := r.n
	p := n.params
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
		sw := r.switchFor(k, src, home)
		key := refGatherKey{sw, g.ID}
		ge := r.gathers[key]
		if ge == nil {
			ge = &refGatherEntry{waitMask: r.waitPattern(g.Spec, src, k)}
			r.gathers[key] = ge
		}
		ge.waitMask &^= 1 << n.digit(src, k)
		ge.merged += merged
		if t > ge.latest {
			ge.latest = t
		}
		if ge.waitMask != 0 {
			n.stats.GatherMerges++
			n.cfg.Pool.Put(m)
			return
		}
		merged = ge.merged
		t = ge.latest + p.GatherMerge
		delete(r.gathers, key)
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

// routeEvent is one observed delivery.
type routeEvent struct {
	node   topology.NodeID
	at     sim.Time
	kind   msg.Kind
	merged int
}

// routeRun is the outcome of one routing workload.
type routeRun struct {
	events []routeEvent
	stats  Stats
	stage  []uint64
	busy   []sim.Time
	port   [2]sim.Time
}

// randomDest draws a destination over real nodes of a nodes-sized
// machine: a pointer list of 1–4 entries in random order, a bit pattern
// from random sharers, all nodes, or (at 1024 nodes) the saturated
// pattern.
func randomDest(rng *rand.Rand, nodes int) directory.Dest {
	switch rng.Intn(6) {
	case 0, 1:
		ptrs := make([]topology.NodeID, 1+rng.Intn(4))
		for i := range ptrs {
			ptrs[i] = topology.NodeID(rng.Intn(nodes))
		}
		return directory.PointerDest(ptrs...)
	case 2, 3:
		var e directory.Entry
		for k := 5 + rng.Intn(40); k > 0; k-- {
			e.MapAdd(topology.NodeID(rng.Intn(nodes)))
		}
		return e.Dest()
	case 4:
		return directory.AllNodes(nodes)
	default:
		if nodes == topology.MaxNodes {
			return directory.Dest{Pattern: 1<<directory.BitPatternBits - 1, IsPattern: true}
		}
		return directory.AllNodes(nodes)
	}
}

// runRouting drives one seeded workload through send: overlapping
// multicast invalidations from random homes, each gathered back from
// every copy after a per-node delay, interleaved with data unicasts.
// router wraps the fresh network in the router under test.
func runRouting(cfg Config, seed int64, router func(*Network) func(*msg.Message)) routeRun {
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine()
	net := New(eng, cfg)
	send := router(net)
	var run routeRun
	for i := 0; i < cfg.Nodes; i++ {
		node := topology.NodeID(i)
		net.Attach(node, func(m *msg.Message) {
			ev := routeEvent{node: node, at: eng.Now(), kind: m.Kind}
			if m.Gather != nil && m.Kind == msg.InvAck {
				ev.merged = m.Gather.Merged
			}
			run.events = append(run.events, ev)
			if m.Kind != msg.Invalidate {
				return
			}
			g, home := m.Gather, m.Src
			eng.After(sim.Time(20+int(node)%13), func() {
				send(&msg.Message{Kind: msg.InvAck, Src: node, Dest: directory.Single(home), Gather: g})
			})
		})
	}
	for i := 0; i < 24; i++ {
		at := sim.Time(rng.Intn(3000))
		home := topology.NodeID(rng.Intn(cfg.Nodes))
		if rng.Intn(4) == 0 {
			dst := topology.NodeID(rng.Intn(cfg.Nodes))
			eng.At(at, func() {
				send(&msg.Message{Kind: msg.HomeData, Src: home, Dest: directory.Single(dst), HasData: true})
			})
			continue
		}
		spec := randomDest(rng, cfg.Nodes)
		eng.At(at, func() {
			m := &msg.Message{Kind: msg.Invalidate, Src: home, Dest: spec}
			if cfg.Multicast {
				m.Gather = net.AllocGather(spec, home)
			}
			send(m)
		})
	}
	eng.Run()
	run.stats = net.Stats()
	run.stage = net.stageHops
	run.busy = net.stageBusy
	run.port = [2]sim.Time{net.injectBusy, net.ejectBusy}
	return run
}

func liveRouter(n *Network) func(*msg.Message)  { return n.Send }
func refRouterOf(n *Network) func(*msg.Message) { return newRefRouter(n).send }

// routingConfigs lists every machine size with the default stage count
// and each of 2, 4 and 6 stages that addresses it.
func routingConfigs() []Config {
	var cfgs []Config
	for _, nodes := range []int{8, 64, 128, 1024} {
		for _, stages := range []int{0, 2, 4, 6} {
			if stages != 0 && 1<<(2*stages) < nodes {
				continue
			}
			cfgs = append(cfgs, Config{Nodes: nodes, Stages: stages, Multicast: true})
		}
	}
	return cfgs
}

// The member-partitioned fan-out, the PortMask wait patterns and the
// slice gather tables route exactly like the AnyMatch-based reference:
// same deliveries at the same times in the same order, same counters.
func TestRoutingMatchesReference(t *testing.T) {
	cfgs := routingConfigs()
	cfgs = append(cfgs, Config{Nodes: 64, Multicast: false}, Config{Nodes: 1024, Multicast: false})
	for _, cfg := range cfgs {
		seeds := 4
		if cfg.Nodes == topology.MaxNodes {
			seeds = 2
		}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			name := fmt.Sprintf("nodes=%d stages=%d mc=%v seed=%d", cfg.Nodes, cfg.Stages, cfg.Multicast, seed)
			got := runRouting(cfg, seed, liveRouter)
			want := runRouting(cfg, seed, refRouterOf)
			if len(got.events) != len(want.events) {
				t.Fatalf("%s: %d deliveries, reference %d", name, len(got.events), len(want.events))
			}
			for i := range got.events {
				if got.events[i] != want.events[i] {
					t.Fatalf("%s: delivery %d = %+v, reference %+v", name, i, got.events[i], want.events[i])
				}
			}
			if got.stats != want.stats {
				t.Fatalf("%s: stats %+v, reference %+v", name, got.stats, want.stats)
			}
			if !slices.Equal(got.stage, want.stage) || !slices.Equal(got.busy, want.busy) || got.port != want.port {
				t.Fatalf("%s: per-stage accounting differs from the reference", name)
			}
			if cfg.Multicast && got.stats.Multicasts == 0 {
				t.Fatalf("%s: workload sent no multicast", name)
			}
		}
	}
}

// The O(1) switch coordinates equal the per-digit construction.
func TestSwitchForMatchesDigitLoop(t *testing.T) {
	for _, cfg := range routingConfigs() {
		net := New(sim.NewEngine(), cfg)
		ref := newRefRouter(net)
		rng := rand.New(rand.NewSource(int64(cfg.Nodes + cfg.Stages)))
		for i := 0; i < 500; i++ {
			src, dst := rng.Intn(cfg.Nodes), rng.Intn(cfg.Nodes)
			for k := 0; k < net.stages; k++ {
				if net.switchFor(k, src, dst) != ref.switchFor(k, src, dst) {
					t.Fatalf("nodes=%d stages=%d: switchFor(%d, %d, %d) differs", cfg.Nodes, net.stages, k, src, dst)
				}
			}
		}
	}
}

// The invariant the member partition rests on: a destination built from
// real nodes of a power-of-two machine decodes, below Nodes, to exactly
// the set AnyMatch sees over the whole node space — it represents no
// node at or past Nodes.
func TestMembersEqualAnyMatchSet(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		nodes := 1 << rng.Intn(11) // 1..1024
		spec := randomDest(rng, nodes)
		in := make([]bool, topology.MaxNodes)
		for _, m := range spec.Members(nil, nodes) {
			in[m] = true
		}
		for x := 0; x < topology.MaxNodes; x++ {
			if spec.AnyMatch(1<<topology.NodeBits-1, uint32(x)) != in[x] {
				t.Fatalf("trial %d (%d nodes, %+v): node %d: AnyMatch %v, Members %v",
					trial, nodes, spec, x, !in[x], in[x])
			}
		}
	}
}

// Many gathers merging through the same switches at once: every group
// completes with one reply that counts all its members, and each
// switch's gather table drains (swap-remove leaves no stale entry).
func TestConcurrentGathersShareSwitches(t *testing.T) {
	const nodes = 64
	rng := rand.New(rand.NewSource(5))
	eng := sim.NewEngine()
	net := New(eng, Config{Nodes: nodes, Multicast: true})
	want := map[uint64]int{}
	got := map[uint64]int{}
	replies := 0
	for i := 0; i < nodes; i++ {
		net.Attach(topology.NodeID(i), func(m *msg.Message) {
			replies++
			got[m.Gather.ID] += m.Gather.Merged
		})
	}
	type contribution struct {
		src topology.NodeID
		g   *msg.Gather
	}
	var all []contribution
	home := topology.NodeID(9)
	for grp := 0; grp < 40; grp++ {
		spec := randomDest(rng, nodes)
		g := net.AllocGather(spec, home)
		members := spec.Members(nil, nodes)
		want[g.ID] = len(members)
		for _, m := range members {
			all = append(all, contribution{m, g})
		}
	}
	// Interleave the groups' replies so their entries share switch tables
	// and leave them in an order unrelated to their arrival.
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for i, c := range all {
		eng.At(sim.Time(i/8), func() {
			net.Send(&msg.Message{Kind: msg.InvAck, Src: c.src, Dest: directory.Single(home), Gather: c.g})
		})
	}
	eng.Run()
	if replies != len(want) {
		t.Fatalf("home received %d gathered replies, want one per group (%d)", replies, len(want))
	}
	for id, n := range want {
		if got[id] != n {
			t.Fatalf("group %d merged %d replies, want %d", id, got[id], n)
		}
	}
	grown := 0
	for i := range net.switches {
		if n := len(net.switches[i].gathers); n != 0 {
			t.Fatalf("switch %d holds %d gather entries after every group completed", i, n)
		}
		grown = max(grown, cap(net.switches[i].gathers))
	}
	if grown < 16 {
		t.Fatalf("no gather table grew past %d entries: the test no longer crowds one switch", grown)
	}
	if net.ActiveGathers() != 0 {
		t.Fatalf("%d gathers still active", net.ActiveGathers())
	}
}

// A one-member bit pattern — every node of a 1-node machine, as the
// update protocol addresses them — is delivered as the singlecast it is.
func TestOneMemberPatternDeliversOnce(t *testing.T) {
	h := newHarness(t, Config{Nodes: 1, Multicast: true})
	h.net.Send(&msg.Message{Kind: msg.UpdateData, Src: 0, Dest: directory.AllNodes(1), HasData: true})
	h.eng.Run()
	if len(h.got) != 1 || h.got[0].node != 0 || !h.got[0].m.Dest.SingleTo(0) {
		t.Fatalf("deliveries %+v, want one to node 0 addressed to it alone", h.got)
	}
}
