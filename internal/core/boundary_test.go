package core

import (
	"strings"
	"testing"

	"cenju4/internal/directory"
	"cenju4/internal/faults"
	"cenju4/internal/memory"
	"cenju4/internal/msg"
	"cenju4/internal/network"
	"cenju4/internal/sim"
	"cenju4/internal/topology"
)

// Boundary tests for the paper's sizing story: the master's 4-entry
// reply buffer (R10000 MaxOutstanding), and the 64 KB memory-resident
// overflow regions that break the deadlock dependency graph. Each
// bound is driven to exactly-full (queued, never dropped) and to
// full+1 (deferred at the master; sizing-invariant panic at the
// memory queues, which the protocol guarantees is unreachable).

func TestMasterReplyBufferExactlyFullThenDeferred(t *testing.T) {
	cl := newCluster(t, 8, true)
	done := make([]bool, topology.MaxOutstanding+1)
	for i := range done {
		i := i
		cl.ctrls[1].Request(blockAt(0, uint64(i)), false, func() { done[i] = true })
	}
	m := &cl.ctrls[1].master
	if got := cl.ctrls[1].Outstanding(); got != topology.MaxOutstanding {
		t.Fatalf("Outstanding = %d, want exactly-full %d", got, topology.MaxOutstanding)
	}
	if d := len(m.deferred) - m.defHead; d != 1 {
		t.Fatalf("deferred = %d, want the full+1 request queued (not dropped)", d)
	}
	cl.eng.Run()
	for i, ok := range done {
		if !ok {
			t.Fatalf("request %d never completed", i)
		}
	}
	if cl.ctrls[1].Outstanding() != 0 || len(m.deferred)-m.defHead != 0 {
		t.Fatal("master did not drain back to empty")
	}
}

// deliverForwards feeds n forwarded reads straight into node's slave
// without running the engine, so the backlog accumulates exactly as a
// burst of simultaneous arrivals would.
func deliverForwards(cl *cluster, node topology.NodeID, n int) {
	c := cl.ctrls[node]
	for i := 0; i < n; i++ {
		c.Deliver(c.cfg.Pool.New(msg.Message{
			Kind:   msg.FwdReadShared,
			Src:    2,
			Dest:   directory.Single(node),
			Addr:   blockAt(0, uint64(i)),
			Master: 2,
		}))
	}
}

func TestSlaveOverflowExactlyFull(t *testing.T) {
	const capOverride = 4
	cl := newCluster(t, 8, true, func(cfg *Config) {
		cfg.ModuleBufEntries = 1
		cfg.QueueCapOverride = capOverride
	})
	// 1 on-chip + capOverride spilled = overflow exactly full.
	deliverForwards(cl, 1, 1+capOverride)
	s := &cl.ctrls[1].slave
	if s.backlog != 1+capOverride {
		t.Fatalf("backlog = %d, want %d", s.backlog, 1+capOverride)
	}
	if s.overflow.Len() != capOverride || s.overflow.Len() != s.overflow.Cap() {
		t.Fatalf("overflow depth %d / cap %d, want exactly full", s.overflow.Len(), s.overflow.Cap())
	}
	if s.overflow.HighWater() != capOverride {
		t.Fatalf("overflow high water = %d, want %d", s.overflow.HighWater(), capOverride)
	}
}

func TestSlaveOverflowFullPlusOnePanics(t *testing.T) {
	const capOverride = 4
	cl := newCluster(t, 8, true, func(cfg *Config) {
		cfg.ModuleBufEntries = 1
		cfg.QueueCapOverride = capOverride
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("overflow beyond capacity did not trip the sizing invariant")
		}
		if !strings.Contains(r.(string), "overflow beyond") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	deliverForwards(cl, 1, 1+capOverride+1)
}

func TestHomeRequestFIFOExactlyFullThenInvariantPanic(t *testing.T) {
	// A drop-all-forwards plan with recovery disabled wedges one
	// transaction pending at home 0 forever; every later request for
	// the same block parks in the home request FIFO. With the FIFO
	// capacity squeezed to 2, two parked requests are exactly full
	// (queued — never dropped or bounced), and a third trips the
	// sizing-invariant panic.
	const capOverride = 2
	spec := faults.Spec{Seed: 1, Drop: 1, Scope: faults.ScopeForwards}
	inj := spec.Compile(8)
	cl := &cluster{eng: sim.NewEngine()}
	cl.net = network.New(cl.eng, network.Config{Nodes: 8, Multicast: true, Injector: inj})
	cl.ctrls = make([]*Controller, 8)
	for i := 0; i < 8; i++ {
		cl.ctrls[i] = New(cl.eng, cl.net, Config{
			Node: topology.NodeID(i), Nodes: 8, QueueCapOverride: capOverride,
		})
		cl.net.Attach(topology.NodeID(i), cl.ctrls[i].Deliver)
	}

	a := blockAt(0, 1)
	cl.access(t, 1, a, true) // node 1 holds the block Modified

	// Node 2's steal wedges: the forward is dropped and (no recovery)
	// never retransmitted, so home 0 keeps the block pending forever.
	cl.ctrls[2].Request(a, true, nil)
	cl.eng.Run()

	for i, n := range []topology.NodeID{3, 4} {
		cl.ctrls[n].Request(a, false, nil)
		cl.eng.Run()
		q := cl.ctrls[0].home.queue
		if q.Len() != i+1 {
			t.Fatalf("after request %d: FIFO depth %d, want %d", i+1, q.Len(), i+1)
		}
	}
	q := cl.ctrls[0].home.queue
	if q.Len() != q.Cap() || q.HighWater() != capOverride {
		t.Fatalf("FIFO depth %d / cap %d / high water %d, want exactly full", q.Len(), q.Cap(), q.HighWater())
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("full+1 request did not trip the sizing invariant")
		}
		if !strings.Contains(r.(string), "overflow beyond 2 entries") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	cl.ctrls[5].Request(a, false, nil)
	cl.eng.Run()
}

func TestOverflowRegionMatchesPaperSizing(t *testing.T) {
	// At full scale (1024 nodes x 4 outstanding requests) the paper's
	// overflow regions are 64 KB of main memory per module.
	q := memory.NewQueue[struct{}]("sizing", memory.RequestQueueCapacity(1024), memory.OverflowQueueBits)
	if got := q.BufferBytes(); got != 64*1024 {
		t.Fatalf("BufferBytes = %d, want 64 KB", got)
	}
	if topology.MaxOutstanding != 4 {
		t.Fatalf("MaxOutstanding = %d, want the R10000's 4", topology.MaxOutstanding)
	}
}
