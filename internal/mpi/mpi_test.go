package mpi

import (
	"testing"

	"cenju4/internal/sim"
	"cenju4/internal/timing"
	"cenju4/internal/topology"
)

func TestSendThenRecv(t *testing.T) {
	eng := sim.NewEngine()
	w := New(eng, 4)
	w.Send(0, 1, 1024)
	var at sim.Time
	got := false
	w.Recv(1, 0, func() { got = true; at = eng.Now() })
	eng.Run()
	if !got {
		t.Fatal("recv never completed")
	}
	want := timing.DefaultMPI().Transfer(1024)
	if at != want {
		t.Fatalf("arrival at %v, want %v", at, want)
	}
}

func TestRecvBeforeSend(t *testing.T) {
	eng := sim.NewEngine()
	w := New(eng, 4)
	got := false
	w.Recv(1, 0, func() { got = true })
	eng.At(5000, func() { w.Send(0, 1, 64) })
	eng.Run()
	if !got {
		t.Fatal("recv never completed")
	}
	if eng.Now() < 5000+timing.DefaultMPI().Latency {
		t.Fatalf("completed at %v, too early", eng.Now())
	}
}

func TestInOrderChannel(t *testing.T) {
	eng := sim.NewEngine()
	w := New(eng, 2)
	w.Send(0, 1, 8)
	w.Send(0, 1, 1<<20) // much slower
	var order []int
	w.Recv(1, 0, func() { order = append(order, 1) })
	w.Recv(1, 0, func() { order = append(order, 2) })
	eng.Run()
	if len(order) != 2 {
		t.Fatalf("completions = %v", order)
	}
}

func TestCalibration(t *testing.T) {
	// The paper: 9.1 us latency, 169 MB/s throughput.
	p := timing.DefaultMPI()
	if p.Transfer(0) != 9100 {
		t.Fatalf("zero-byte latency %v, want 9100ns", p.Transfer(0))
	}
	// 1 MB at 169 MB/s is ~5.9 ms + latency.
	ms := p.Transfer(1 << 20)
	if ms < 6000000 || ms > 6500000 {
		t.Fatalf("1MB transfer = %v, want ~6.2ms", ms)
	}
}

func TestBarrierReleasesAllTogether(t *testing.T) {
	eng := sim.NewEngine()
	w := New(eng, 4)
	var times []sim.Time
	for i := 0; i < 3; i++ {
		node := i
		eng.At(sim.Time(node*1000), func() {
			w.Barrier(uint16ID(node), func() { times = append(times, eng.Now()) })
		})
	}
	eng.At(30000, func() {
		w.Barrier(3, func() { times = append(times, eng.Now()) })
	})
	eng.Run()
	if len(times) != 4 {
		t.Fatalf("%d releases, want 4", len(times))
	}
	for _, at := range times {
		if at != times[0] {
			t.Fatalf("releases not simultaneous: %v", times)
		}
	}
	// Release must be after the last arrival plus the combining cost.
	if times[0] <= 30000 {
		t.Fatalf("released at %v, before last arrival", times[0])
	}
	if w.Stats().Barriers != 1 {
		t.Fatalf("Barriers = %d", w.Stats().Barriers)
	}
}

func TestConsecutiveBarriersMatchInOrder(t *testing.T) {
	eng := sim.NewEngine()
	w := New(eng, 2)
	seq := []string{}
	var phase2 func()
	phase2 = func() {
		w.Barrier(0, func() { seq = append(seq, "a2") })
		w.Barrier(1, func() { seq = append(seq, "b2") })
	}
	w.Barrier(0, func() { seq = append(seq, "a1"); phase2() })
	// Node 1 arrives at barrier 1 late; node 0 will already be waiting
	// at barrier 2 by then — arrivals must not cross-match.
	eng.At(100, func() {
		w.Barrier(1, func() { seq = append(seq, "b1") })
	})
	eng.Run()
	if len(seq) != 4 {
		t.Fatalf("seq = %v", seq)
	}
	if w.Stats().Barriers != 2 {
		t.Fatalf("Barriers = %d, want 2", w.Stats().Barriers)
	}
}

func TestAllReduceCostsMoreThanBarrier(t *testing.T) {
	run := func(bytes uint64) sim.Time {
		eng := sim.NewEngine()
		w := New(eng, 8)
		for i := 0; i < 8; i++ {
			if bytes == 0 {
				w.Barrier(uint16ID(i), func() {})
			} else {
				w.AllReduce(uint16ID(i), bytes, func() {})
			}
		}
		eng.Run()
		return eng.Now()
	}
	if run(1<<16) <= run(0) {
		t.Fatal("64KB allreduce not slower than barrier")
	}
}

func TestSendOutOfRangePanics(t *testing.T) {
	eng := sim.NewEngine()
	w := New(eng, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	w.Send(0, 5, 8)
}

func uint16ID(i int) topology.NodeID { return topology.NodeID(i) }
