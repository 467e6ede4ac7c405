package machine

import (
	"errors"
	"testing"

	"cenju4/internal/cpu"
	"cenju4/internal/faults"
	"cenju4/internal/msg"
	"cenju4/internal/shmem"
	"cenju4/internal/sim"
	"cenju4/internal/topology"
)

func progOf(ops ...cpu.Op) cpu.Program { return &cpu.SliceProgram{Ops: ops} }

func emptyProgs(n int) []cpu.Program {
	ps := make([]cpu.Program, n)
	for i := range ps {
		ps[i] = progOf()
	}
	return ps
}

func TestConfigValidateNodeCount(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		ok    bool
	}{{2, true}, {3, false}, {5, false}, {2048, false}} {
		err := Config{Nodes: tc.nodes}.Validate()
		var bad *InvalidNodeCountError
		switch {
		case tc.ok && err != nil:
			t.Errorf("%d nodes: %v", tc.nodes, err)
		case !tc.ok && !errors.As(err, &bad):
			t.Errorf("%d nodes: got %v, want an InvalidNodeCountError", tc.nodes, err)
		case !tc.ok && bad.Nodes != tc.nodes:
			t.Errorf("%d nodes: error names %d", tc.nodes, bad.Nodes)
		}
	}
}

// Stage counts New would panic on are refused by Validate: exactly the
// network's own conditions, with 0 meaning the paper's count.
func TestConfigValidateStageCount(t *testing.T) {
	for _, tc := range []struct {
		nodes, stages int
		ok            bool
	}{
		{8, 0, true}, {1024, 0, true},
		{4, 1, true}, {8, 1, false}, {16, 2, true}, {64, 2, false},
		{64, 3, true}, {1024, 5, true}, {1024, 4, false},
		{8, 6, true}, {8, 7, false}, {8, 16, false}, {8, 17, false}, {8, -1, false},
	} {
		err := Config{Nodes: tc.nodes, Stages: tc.stages}.Validate()
		var bad *InvalidStageCountError
		switch {
		case tc.ok && err != nil:
			t.Errorf("%d nodes, %d stages: %v", tc.nodes, tc.stages, err)
		case !tc.ok && !errors.As(err, &bad):
			t.Errorf("%d nodes, %d stages: got %v, want an InvalidStageCountError", tc.nodes, tc.stages, err)
		case !tc.ok && (bad.Stages != tc.stages || bad.Nodes != tc.nodes):
			t.Errorf("%d nodes, %d stages: error names %+v", tc.nodes, tc.stages, *bad)
		}
		if tc.ok {
			New(Config{Nodes: tc.nodes, Stages: tc.stages}) // must not panic
		}
	}
	// A bad node count is reported first.
	var badNodes *InvalidNodeCountError
	if err := (Config{Nodes: 3, Stages: -1}).Validate(); !errors.As(err, &badNodes) {
		t.Errorf("3 nodes, -1 stages: got %v, want an InvalidNodeCountError", err)
	}
}

// TestConfigValidateFault: a malformed fault plan is an error from
// Validate, not a panic from New.
func TestConfigValidateFault(t *testing.T) {
	if err := (Config{Nodes: 8, Fault: faults.Spec{Drop: 2}}).Validate(); err == nil {
		t.Fatal("drop rate 2 passed Validate")
	}
	if err := (Config{Nodes: 8, Fault: faults.Spec{Drop: 0.02}}).Validate(); err != nil {
		t.Fatalf("drop rate 0.02: %v", err)
	}
}

func TestEmptyProgramsFinish(t *testing.T) {
	m := New(Config{Nodes: 4, Multicast: true})
	r := m.Run(emptyProgs(4))
	if r.Time != 0 {
		t.Fatalf("makespan %v, want 0", r.Time)
	}
	for _, s := range r.PerNode {
		if !s.Finished {
			t.Fatal("program not finished")
		}
	}
}

func TestComputeOnly(t *testing.T) {
	m := New(Config{Nodes: 2, Multicast: true})
	progs := []cpu.Program{
		progOf(cpu.Op{Kind: cpu.OpCompute, N: 1000}),
		progOf(cpu.Op{Kind: cpu.OpCompute, N: 500}),
	}
	r := m.Run(progs)
	if r.Time != 5000 { // 1000 instr * 5 ns
		t.Fatalf("makespan %v, want 5000", r.Time)
	}
	if r.PerNode[0].Instructions != 1000 || r.PerNode[1].Instructions != 500 {
		t.Fatalf("instruction counts: %d, %d", r.PerNode[0].Instructions, r.PerNode[1].Instructions)
	}
}

func TestPrivateAccessTiming(t *testing.T) {
	m := New(Config{Nodes: 1, Multicast: true})
	a := topology.PrivateAddr(0)
	progs := []cpu.Program{progOf(
		cpu.Op{Kind: cpu.OpLoad, Addr: a},  // private miss: 470 ns
		cpu.Op{Kind: cpu.OpLoad, Addr: a},  // hit: 8 ns
		cpu.Op{Kind: cpu.OpStore, Addr: a}, // hit (silent E->M): 8 ns
	)}
	r := m.Run(progs)
	if r.Time != 470+8+8 {
		t.Fatalf("makespan %v, want 486", r.Time)
	}
	s := r.PerNode[0]
	if s.PrivateAccesses != 3 || s.PrivateMisses != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSharedLocalCleanLatency(t *testing.T) {
	m := New(Config{Nodes: 16, Multicast: true})
	a := topology.SharedAddr(0, 0)
	progs := emptyProgs(16)
	progs[0] = progOf(cpu.Op{Kind: cpu.OpLoad, Addr: a})
	r := m.Run(progs)
	if r.Time != 610 { // Table 2 row b
		t.Fatalf("makespan %v, want 610", r.Time)
	}
	if r.PerNode[0].LocalAccesses != 1 || r.PerNode[0].LocalMisses != 1 {
		t.Fatalf("stats = %+v", r.PerNode[0])
	}
}

func TestRemoteAccessClassification(t *testing.T) {
	m := New(Config{Nodes: 16, Multicast: true})
	progs := emptyProgs(16)
	progs[3] = progOf(
		cpu.Op{Kind: cpu.OpLoad, Addr: topology.SharedAddr(7, 0)},
		cpu.Op{Kind: cpu.OpLoad, Addr: topology.SharedAddr(7, 0)}, // hit
	)
	r := m.Run(progs)
	s := r.PerNode[3]
	if s.RemoteAccesses != 2 || s.RemoteMisses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Misses != 1 || s.MissRatio() != 0.5 {
		t.Fatalf("miss ratio = %v", s.MissRatio())
	}
}

func TestTrueSharingThroughProgram(t *testing.T) {
	// Node 0 writes a block, barrier, node 1 reads it: the read must see
	// a coherence transaction (forwarded through the home).
	m := New(Config{Nodes: 2, Multicast: true})
	a := topology.SharedAddr(0, 0)
	progs := []cpu.Program{
		progOf(cpu.Op{Kind: cpu.OpStore, Addr: a}, cpu.Op{Kind: cpu.OpBarrier}),
		progOf(cpu.Op{Kind: cpu.OpBarrier}, cpu.Op{Kind: cpu.OpLoad, Addr: a}),
	}
	r := m.Run(progs)
	if r.Protocol[0].HomeForwards != 1 {
		t.Fatalf("home forwards = %d, want 1 (dirty read)", r.Protocol[0].HomeForwards)
	}
	if r.PerNode[1].SyncTime == 0 {
		t.Fatal("node 1 recorded no sync time despite waiting at the barrier")
	}
}

func TestSendRecvPrograms(t *testing.T) {
	m := New(Config{Nodes: 2, Multicast: true})
	progs := []cpu.Program{
		progOf(cpu.Op{Kind: cpu.OpSend, Dst: 1, N: 4096}),
		progOf(cpu.Op{Kind: cpu.OpRecv, Dst: 0}),
	}
	r := m.Run(progs)
	if r.MPI.Messages != 1 || r.MPI.Bytes != 4096 {
		t.Fatalf("MPI stats = %+v", r.MPI)
	}
	if r.PerNode[1].SyncTime == 0 {
		t.Fatal("receiver recorded no wait time")
	}
}

func TestAllReducePrograms(t *testing.T) {
	m := New(Config{Nodes: 4, Multicast: true})
	progs := make([]cpu.Program, 4)
	for i := range progs {
		progs[i] = progOf(cpu.Op{Kind: cpu.OpAllReduce, N: 8})
	}
	r := m.Run(progs)
	if r.MPI.AllReduces != 1 {
		t.Fatalf("AllReduces = %d", r.MPI.AllReduces)
	}
}

func TestQuantumPreservesTotalTime(t *testing.T) {
	// A long compute block must take the same total time regardless of
	// quantum-driven slicing.
	for _, q := range []sim.Time{1000, 1000000} {
		m := New(Config{Nodes: 1, Multicast: true, CPU: cpu.Config{Quantum: q}})
		r := m.Run([]cpu.Program{progOf(
			cpu.Op{Kind: cpu.OpCompute, N: 100000},
		)})
		if r.Time != 500000 {
			t.Fatalf("quantum %v: makespan %v, want 500000", q, r.Time)
		}
	}
}

func TestSharedArraySweepMissRate(t *testing.T) {
	// Streaming over a blocked shared region: 16 elements per block, so
	// the miss ratio must be 1/16 once cold misses dominate.
	m := New(Config{Nodes: 4, Multicast: true})
	alloc := shmem.NewAllocator(4)
	reg := alloc.Shared("u", 4*1024, shmem.MapBlocked)
	progs := make([]cpu.Program, 4)
	for n := 0; n < 4; n++ {
		lo, hi := reg.OwnerRange(topology.NodeID(n))
		var ops []cpu.Op
		for i := lo; i < hi; i++ {
			ops = append(ops, cpu.Op{Kind: cpu.OpLoad, Addr: reg.Addr(i)})
		}
		progs[n] = progOf(ops...)
	}
	r := m.Run(progs)
	tot := r.Totals()
	if tot.MemAccesses != 4096 {
		t.Fatalf("accesses = %d", tot.MemAccesses)
	}
	wantMisses := uint64(4096 / 16)
	if tot.Misses != wantMisses {
		t.Fatalf("misses = %d, want %d", tot.Misses, wantMisses)
	}
	if tot.LocalMisses != wantMisses || tot.RemoteMisses != 0 {
		t.Fatalf("blocked mapping produced remote misses: %+v", tot)
	}
}

func TestUnmappedArrayIsRemoteForOthers(t *testing.T) {
	m := New(Config{Nodes: 4, Multicast: true})
	alloc := shmem.NewAllocator(4)
	reg := alloc.Shared("u", 1024, shmem.MapNone)
	progs := make([]cpu.Program, 4)
	for n := 0; n < 4; n++ {
		lo, hi := reg.OwnerRange(topology.NodeID(n))
		var ops []cpu.Op
		for i := lo; i < hi; i++ {
			ops = append(ops, cpu.Op{Kind: cpu.OpLoad, Addr: reg.Addr(i)})
		}
		progs[n] = progOf(ops...)
	}
	r := m.Run(progs)
	tot := r.Totals()
	if tot.RemoteMisses == 0 {
		t.Fatal("no remote misses despite MapNone")
	}
	// Node 0's accesses are local; the other three nodes' are remote.
	if r.PerNode[0].RemoteAccesses != 0 || r.PerNode[1].LocalAccesses != 0 {
		t.Fatalf("classification wrong: %+v / %+v", r.PerNode[0], r.PerNode[1])
	}
}

func TestLatencyHistograms(t *testing.T) {
	m := New(Config{Nodes: 4, Multicast: true})
	progs := []cpu.Program{
		progOf(
			cpu.Op{Kind: cpu.OpLoad, Addr: topology.SharedAddr(1, 0)},
			cpu.Op{Kind: cpu.OpStore, Addr: topology.SharedAddr(1, 128)},
		),
		progOf(), progOf(), progOf(),
	}
	m.Run(progs)
	h := m.LatencyHistograms()
	rs, ok := h[msg.ReadShared]
	if !ok || rs.Count() != 1 {
		t.Fatalf("read-shared histogram = %v", rs)
	}
	if _, ok := h[msg.ReadExclusive]; !ok {
		t.Fatal("read-exclusive histogram missing")
	}
	// Remote clean load on a 2-stage machine: Table 2 row c.
	if rs.Max() != 1740 {
		t.Fatalf("recorded latency %v, want 1740", rs.Max())
	}
}

func TestBadNodeCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config{Nodes: 7})
}

func TestWrongProgramCountPanics(t *testing.T) {
	m := New(Config{Nodes: 2, Multicast: true})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.Run(emptyProgs(3))
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		m := New(Config{Nodes: 8, Multicast: true})
		alloc := shmem.NewAllocator(8)
		reg := alloc.Shared("u", 2048, shmem.MapBlocked)
		progs := make([]cpu.Program, 8)
		for n := 0; n < 8; n++ {
			var ops []cpu.Op
			for i := 0; i < 512; i++ {
				idx := (i*13 + n*257) % 2048
				k := cpu.OpLoad
				if i%5 == 0 {
					k = cpu.OpStore
				}
				ops = append(ops, cpu.Op{Kind: k, Addr: reg.Addr(idx)})
			}
			ops = append(ops, cpu.Op{Kind: cpu.OpBarrier})
			progs[n] = progOf(ops...)
		}
		return m.Run(progs)
	}
	a, b := run(), run()
	if a.Time != b.Time || a.Events != b.Events {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d", a.Time, a.Events, b.Time, b.Events)
	}
}

func BenchmarkMachineSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := New(Config{Nodes: 16, Multicast: true})
		alloc := shmem.NewAllocator(16)
		reg := alloc.Shared("u", 16*1024, shmem.MapBlocked)
		progs := make([]cpu.Program, 16)
		for n := 0; n < 16; n++ {
			lo, hi := reg.OwnerRange(topology.NodeID(n))
			ops := make([]cpu.Op, 0, hi-lo)
			for j := lo; j < hi; j++ {
				ops = append(ops, cpu.Op{Kind: cpu.OpLoad, Addr: reg.Addr(j)})
			}
			progs[n] = progOf(ops...)
		}
		m.Run(progs)
	}
}
