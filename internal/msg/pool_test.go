package msg

import "testing"

func TestPoolRecycles(t *testing.T) {
	p := &Pool{}
	m1 := p.New(Message{Kind: ReadShared, Addr: 0x1000})
	p.Put(m1)
	m2 := p.Get()
	if m2 != m1 {
		t.Fatal("Get did not reuse the released record")
	}
	if m2.Kind != KindInvalid || m2.Addr != 0 || m2.inPool {
		t.Fatalf("recycled message not zeroed: %+v", m2)
	}
}

func TestPoolPutZeroesGather(t *testing.T) {
	p := &Pool{}
	m := p.New(Message{Kind: InvAck, Gather: &Gather{ID: 7}})
	p.Put(m)
	if m.Gather != nil {
		t.Fatal("Put left a Gather pointer on a released message")
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	p := &Pool{}
	m := p.Get()
	p.Put(m)
	defer func() {
		if recover() == nil {
			t.Fatal("double Put did not panic")
		}
	}()
	p.Put(m)
}

func TestPoolCloneOfReleasedPanics(t *testing.T) {
	p := &Pool{}
	m := p.Get()
	p.Put(m)
	defer func() {
		if recover() == nil {
			t.Fatal("Clone of released message did not panic")
		}
	}()
	p.Clone(m)
}

func TestPoolClone(t *testing.T) {
	p := &Pool{}
	m := p.New(Message{Kind: Invalidate, Addr: 0x2000, HasData: true})
	c := p.Clone(m)
	if c == m {
		t.Fatal("Clone returned the original")
	}
	if c.Kind != Invalidate || c.Addr != 0x2000 || !c.HasData {
		t.Fatalf("Clone lost fields: %+v", c)
	}
}

// TestNilPoolIsAllocateAndForget: a nil *Pool must behave exactly like
// plain allocation (the default for direct network/controller
// construction).
func TestNilPoolIsAllocateAndForget(t *testing.T) {
	var p *Pool
	m := p.New(Message{Kind: ReadShared})
	if m == nil || m.Kind != ReadShared {
		t.Fatalf("nil-pool New = %+v", m)
	}
	p.Put(m) // no-op
	if m.Kind != ReadShared {
		t.Fatal("nil-pool Put modified the message")
	}
	if c := p.Clone(m); c == m || c.Kind != ReadShared {
		t.Fatal("nil-pool Clone broken")
	}
}

// BenchmarkPoolRoundTrip: New then Put on a warm pool, one coherence
// hop's message lifetime. A recycled record makes it allocation-free.
func BenchmarkPoolRoundTrip(b *testing.B) {
	p := &Pool{}
	p.Put(p.Get())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Put(p.New(Message{Kind: ReadShared, Addr: 0x1000}))
	}
}
