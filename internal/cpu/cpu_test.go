package cpu

import (
	"testing"
	"unsafe"

	"cenju4/internal/core"
	"cenju4/internal/network"
	"cenju4/internal/sim"
	"cenju4/internal/timing"
	"cenju4/internal/topology"
)

// nullSync satisfies Sync with immediate completion (single-node tests).
type nullSync struct{ barriers, reduces, sends, recvs int }

func (s *nullSync) Barrier(_ topology.NodeID, done func())             { s.barriers++; done() }
func (s *nullSync) Send(_, _ topology.NodeID, _ uint64)                { s.sends++ }
func (s *nullSync) Recv(_, _ topology.NodeID, done func())             { s.recvs++; done() }
func (s *nullSync) AllReduce(_ topology.NodeID, _ uint64, done func()) { s.reduces++; done() }

func newCPU(t *testing.T) (*CPU, *sim.Engine, *nullSync) {
	t.Helper()
	eng := sim.NewEngine()
	net := network.New(eng, network.Config{Nodes: 2, Multicast: true})
	ctrl := core.New(eng, net, core.Config{Node: 0, Nodes: 2})
	net.Attach(0, ctrl.Deliver)
	c1 := core.New(eng, net, core.Config{Node: 1, Nodes: 2})
	net.Attach(1, c1.Deliver)
	sync := &nullSync{}
	return New(eng, ctrl, sync, Config{Node: 0}), eng, sync
}

func run(t *testing.T, c *CPU, eng *sim.Engine, ops ...Op) Stats {
	t.Helper()
	done := false
	c.Run(&SliceProgram{Ops: ops}, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("program did not finish")
	}
	return c.Stats()
}

func TestComputeTiming(t *testing.T) {
	c, eng, _ := newCPU(t)
	s := run(t, c, eng, Op{Kind: OpCompute, N: 200})
	if eng.Now() != 1000 { // 200 instructions x 5 ns
		t.Fatalf("time = %v, want 1000", eng.Now())
	}
	if s.Instructions != 200 || !s.Finished {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPrivateMissAndHit(t *testing.T) {
	c, eng, _ := newCPU(t)
	a := topology.PrivateAddr(0)
	s := run(t, c, eng,
		Op{Kind: OpLoad, Addr: a},
		Op{Kind: OpLoad, Addr: a},
		Op{Kind: OpStore, Addr: a},
	)
	p := timing.Default()
	want := (p.ProcOverhead + p.MemAccess) + p.CacheHit + p.CacheHit
	if eng.Now() != want {
		t.Fatalf("time = %v, want %v", eng.Now(), want)
	}
	if s.PrivateMisses != 1 || s.PrivateAccesses != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSharedMissBlocksOnProtocol(t *testing.T) {
	c, eng, _ := newCPU(t)
	a := topology.SharedAddr(0, 0)
	s := run(t, c, eng, Op{Kind: OpLoad, Addr: a})
	if eng.Now() != 610 { // Table 2 row b
		t.Fatalf("time = %v, want 610", eng.Now())
	}
	if s.LocalMisses != 1 || s.LocalAccesses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRemoteClassification(t *testing.T) {
	c, eng, _ := newCPU(t)
	s := run(t, c, eng, Op{Kind: OpLoad, Addr: topology.SharedAddr(1, 0)})
	if s.RemoteMisses != 1 || s.RemoteAccesses != 1 || s.LocalAccesses != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSyncOpsReachProvider(t *testing.T) {
	c, eng, sync := newCPU(t)
	s := run(t, c, eng,
		Op{Kind: OpBarrier},
		Op{Kind: OpAllReduce, N: 8},
		Op{Kind: OpSend, Dst: 1, N: 64},
		Op{Kind: OpRecv, Dst: 1},
	)
	if sync.barriers != 1 || sync.reduces != 1 || sync.sends != 1 || sync.recvs != 1 {
		t.Fatalf("sync calls: %+v", *sync)
	}
	_ = s
}

func TestMissRatio(t *testing.T) {
	s := Stats{MemAccesses: 200, Misses: 3}
	if s.MissRatio() != 0.015 {
		t.Fatalf("MissRatio() = %v", s.MissRatio())
	}
	if (Stats{}).MissRatio() != 0 {
		t.Fatal("zero-access MissRatio not 0")
	}
}

func TestUnknownOpPanics(t *testing.T) {
	c, eng, _ := newCPU(t)
	c.Run(&SliceProgram{Ops: []Op{{Kind: OpKind(99)}}}, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	eng.Run()
}

// countdown is a hand-written Program: it emits remaining single
// compute ops, at most two per Fill.
type countdown struct{ remaining int }

func (p *countdown) Fill(buf []Op) int {
	n := 0
	for n < 2 && p.remaining > 0 {
		buf[n] = Op{Kind: OpCompute, N: 1}
		n++
		p.remaining--
	}
	return n
}

// TestFuncProgram runs a hand-written Program through the CPU and
// drains a SliceProgram in MinFill-sized batches.
func TestFuncProgram(t *testing.T) {
	c, eng, _ := newCPU(t)
	done := false
	c.Run(&countdown{remaining: 5}, func() { done = true })
	eng.Run()
	if !done || c.Stats().Instructions != 5 {
		t.Fatalf("instructions = %d", c.Stats().Instructions)
	}

	ops := make([]Op, 5)
	for i := range ops {
		ops[i] = Op{Kind: OpCompute, N: uint64(i)}
	}
	p := &SliceProgram{Ops: ops}
	buf := make([]Op, MinFill)
	var got []Op
	for {
		n := p.Fill(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if len(got) != len(ops) || got[4] != ops[4] {
		t.Fatalf("SliceProgram filled %v, want %v", got, ops)
	}
}

func TestOpSize(t *testing.T) {
	if sz := unsafe.Sizeof(Op{}); sz != 32 {
		t.Fatalf("sizeof(Op) = %d, want 32", sz)
	}
}

func TestQuantumSlicing(t *testing.T) {
	// A small quantum must split execution into multiple events without
	// changing the total time.
	eng := sim.NewEngine()
	net := network.New(eng, network.Config{Nodes: 2, Multicast: true})
	ctrl := core.New(eng, net, core.Config{Node: 0, Nodes: 2})
	net.Attach(0, ctrl.Deliver)
	other := core.New(eng, net, core.Config{Node: 1, Nodes: 2})
	net.Attach(1, other.Deliver)
	c := New(eng, ctrl, &nullSync{}, Config{Node: 0, Quantum: 50})
	ops := make([]Op, 100)
	for i := range ops {
		ops[i] = Op{Kind: OpCompute, N: 1}
	}
	done := false
	c.Run(&SliceProgram{Ops: ops}, func() { done = true })
	events := eng.Run()
	if !done {
		t.Fatal("not finished")
	}
	if eng.Now() != 500 {
		t.Fatalf("time = %v, want 500", eng.Now())
	}
	if events < 5 {
		t.Fatalf("only %d events: quantum not slicing", events)
	}
}
