package memory

import (
	"testing"

	"cenju4/internal/directory"
	"cenju4/internal/topology"
)

func TestEntryAllocation(t *testing.T) {
	m := New(3)
	a := topology.SharedAddr(3, 0x1000)
	e := m.Entry(a)
	if e.State() != directory.Clean || !e.MapEmpty() {
		t.Fatalf("fresh entry = %v, want clean empty", *e)
	}
	e.MapAdd(7)
	e.SetState(directory.Dirty)
	// Same block returns the same entry.
	if e2 := m.Entry(topology.SharedAddr(3, 0x1000+64)); e2 != e {
		t.Fatal("same block yielded different entries")
	}
	if m.Touched() != 1 {
		t.Fatalf("Touched() = %d", m.Touched())
	}
	if m.DirectoryBytes() != 8 {
		t.Fatalf("DirectoryBytes() = %d", m.DirectoryBytes())
	}
}

func TestEntryWrongHomePanics(t *testing.T) {
	m := New(3)
	for _, a := range []topology.Addr{topology.SharedAddr(4, 0), topology.PrivateAddr(0)} {
		a := a
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Entry(%v) did not panic", a)
				}
			}()
			m.Entry(a)
		}()
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int]("test", 10, 64)
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	if q.Len() != 5 {
		t.Fatalf("Len() = %d", q.Len())
	}
	if v, ok := q.Peek(); !ok || v != 0 {
		t.Fatalf("Peek() = %d,%v", v, ok)
	}
	if q.Len() != 5 {
		t.Fatal("Peek dequeued")
	}
	for i := 0; i < 5; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop() = %d,%v, want %d", v, ok, i)
		}
	}
	if !q.Empty() {
		t.Fatal("not empty after draining")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty returned ok")
	}
}

func TestQueueInterleavedPushPop(t *testing.T) {
	q := NewQueue[int]("test", 4, 64)
	next := 0
	expect := 0
	for round := 0; round < 100; round++ {
		for q.Len() < 3 {
			q.Push(next)
			next++
		}
		v, _ := q.Pop()
		if v != expect {
			t.Fatalf("round %d: Pop() = %d, want %d", round, v, expect)
		}
		expect++
	}
}

func TestQueueOverflowPanics(t *testing.T) {
	q := NewQueue[int]("test", 2, 64)
	q.Push(1)
	q.Push(2)
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	q.Push(3)
}

func TestQueueHighWater(t *testing.T) {
	q := NewQueue[int]("test", 10, 64)
	q.Push(1)
	q.Push(2)
	q.Pop()
	q.Push(3)
	if q.HighWater() != 2 {
		t.Fatalf("HighWater() = %d, want 2", q.HighWater())
	}
}

func TestQueueBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero capacity")
		}
	}()
	NewQueue[int]("bad", 0, 64)
}

// The paper's sizing: the starvation queue is 32 KB and each overflow
// region 64 KB on a 1024-node system.
func TestPaperBufferSizes(t *testing.T) {
	req := NewQueue[uint64]("requests", RequestQueueCapacity(1024), RequestQueueBits)
	if req.BufferBytes() != 32*1024 {
		t.Fatalf("request queue = %d bytes, want 32768", req.BufferBytes())
	}
	slave := NewQueue[uint64]("slave", RequestQueueCapacity(1024), OverflowQueueBits)
	if slave.BufferBytes() != 64*1024 {
		t.Fatalf("slave overflow = %d bytes, want 65536", slave.BufferBytes())
	}
	home := NewQueue[uint64]("home", RequestQueueCapacity(1024), OverflowQueueBits)
	if home.BufferBytes() != 64*1024 {
		t.Fatalf("home overflow = %d bytes, want 65536", home.BufferBytes())
	}
}

func TestQueueCompaction(t *testing.T) {
	q := NewQueue[int]("test", 100000, 64)
	// Force the compaction path (head > 4096 and more than half drained).
	for i := 0; i < 10000; i++ {
		q.Push(i)
	}
	for i := 0; i < 6000; i++ {
		v, _ := q.Pop()
		if v != i {
			t.Fatalf("Pop() = %d, want %d", v, i)
		}
	}
	q.Push(10000)
	for i := 6000; i <= 10000; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("post-compaction Pop() = %d,%v, want %d", v, ok, i)
		}
	}
}

// BenchmarkQueuePushPop: one Push and one Pop on a home request FIFO
// sized for the paper's 1024-node machine and held half full, the
// steady state of a contended home. The ring is already grown, so
// neither call allocates.
func BenchmarkQueuePushPop(b *testing.B) {
	q := NewQueue[uint64]("home-requests", RequestQueueCapacity(topology.MaxNodes), RequestQueueBits)
	for i := 0; i < q.Cap()/2; i++ {
		q.Push(uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(uint64(i))
		if _, ok := q.Pop(); !ok {
			b.Fatal("queue drained")
		}
	}
}
