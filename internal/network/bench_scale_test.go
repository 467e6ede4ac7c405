package network

import (
	"testing"

	"cenju4/internal/directory"
	"cenju4/internal/msg"
	"cenju4/internal/sim"
	"cenju4/internal/topology"
)

// BenchmarkMulticastStorm1024 drives the full-machine invalidation storm
// the 1024-sharer headline claim rests on: one multicast Invalidate
// fanned out to every node, 1024 InvAck replies gathered in-network back
// to the home. Per iteration the network moves 2048 logical protocol
// messages (1024 multicast deliveries, 1023 in-switch merges, 1 combined
// reply delivery); the msgs/sec metric is that count over wall time and
// is the throughput floor BENCH_scale.json gates.
func BenchmarkMulticastStorm1024(b *testing.B) {
	const nodes = 1024
	const home = topology.NodeID(0)
	pool := &msg.Pool{}
	eng := sim.NewEngine()
	net := New(eng, Config{Nodes: nodes, Multicast: true, Pool: pool})
	for j := 0; j < nodes; j++ {
		node := topology.NodeID(j)
		net.Attach(node, func(m *msg.Message) {
			if m.Kind != msg.Invalidate {
				return // the home's combined InvAck: storm complete
			}
			net.Send(pool.New(msg.Message{
				Kind:   msg.InvAck,
				Src:    node,
				Dest:   directory.Single(m.Gather.Home),
				Addr:   m.Addr,
				Master: m.Master,
				Gather: m.Gather,
			}))
		})
	}
	all := directory.AllNodes(nodes)
	before := net.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := net.AllocGather(all, home)
		net.Send(pool.New(msg.Message{
			Kind:   msg.Invalidate,
			Src:    home,
			Dest:   all,
			Master: home,
			Gather: g,
		}))
		eng.Run()
	}
	b.StopTimer()
	after := net.Stats()
	moved := float64(after.Deliveries - before.Deliveries + after.GatherMerges - before.GatherMerges)
	b.ReportMetric(moved/b.Elapsed().Seconds(), "msgs/sec")
}

// BenchmarkGatherMerge times the gather-merge layer on the headline
// workload's typical invalidation: one multicast from home 0 to a
// 92-target bit pattern on 1024 nodes (2 x 2 x 1 x 23 field values —
// cg-1024 averages 92.4 targets per invalidation), and the 92 InvAck
// replies combined switch by switch into one delivery at the home. The
// first storm is run before timing, so the gather tables, message pool
// and event slabs are at steady state: 0 allocs/op.
func BenchmarkGatherMerge(b *testing.B) {
	const nodes = 1024
	const home = topology.NodeID(0)
	pool := &msg.Pool{}
	eng := sim.NewEngine()
	net := New(eng, Config{Nodes: nodes, Multicast: true, Pool: pool})
	for j := 0; j < nodes; j++ {
		node := topology.NodeID(j)
		net.Attach(node, func(m *msg.Message) {
			if m.Kind != msg.Invalidate {
				return // the home's combined InvAck
			}
			net.Send(pool.New(msg.Message{
				Kind:   msg.InvAck,
				Src:    node,
				Dest:   directory.Single(m.Gather.Home),
				Addr:   m.Addr,
				Master: m.Master,
				Gather: m.Gather,
			}))
		})
	}
	var spec directory.BitPattern
	for _, hi := range []int{0x000, 0x080, 0x100, 0x180} { // n[9:8] in {0,1}, n[7:6] in {0,2}
		for lo := 0; lo < 23; lo++ {
			spec.Add(topology.NodeID(hi | lo))
		}
	}
	dest := directory.Dest{Pattern: spec, IsPattern: true}
	if got := len(dest.Members(nil, nodes)); got != 92 {
		b.Fatalf("destination has %d targets, want 92", got)
	}
	storm := func() {
		net.Send(pool.New(msg.Message{
			Kind:   msg.Invalidate,
			Src:    home,
			Dest:   dest,
			Master: home,
			Gather: net.AllocGather(dest, home),
		}))
		eng.Run()
	}
	storm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		storm()
	}
}
