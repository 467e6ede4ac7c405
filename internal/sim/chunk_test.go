package sim

import "testing"

// TestRunChunkEquivalentToRun: looping RunChunk with any limit fires
// the same events in the same order as one Run call.
func TestRunChunkEquivalentToRun(t *testing.T) {
	build := func() (*Engine, *[]int) {
		e := NewEngine()
		var order []int
		// Mixed schedule with nested reschedules, like the protocol's
		// self-continuing handler chains.
		for i := 0; i < 50; i++ {
			i := i
			e.At(Time(i%7)*10, func() {
				order = append(order, i)
				if i%5 == 0 {
					e.After(3, func() { order = append(order, 1000+i) })
				}
			})
		}
		return e, &order
	}

	ref, refOrder := build()
	ref.Run()

	for _, limit := range []uint64{1, 3, 64, 1 << 20} {
		e, order := build()
		var chunks int
		for {
			_, more := e.RunChunk(limit)
			chunks++
			if !more {
				break
			}
		}
		if e.Fired() != ref.Fired() {
			t.Fatalf("limit %d: fired %d events, Run fired %d", limit, e.Fired(), ref.Fired())
		}
		if len(*order) != len(*refOrder) {
			t.Fatalf("limit %d: %d callbacks, Run had %d", limit, len(*order), len(*refOrder))
		}
		for i := range *order {
			if (*order)[i] != (*refOrder)[i] {
				t.Fatalf("limit %d: order[%d]=%d, Run order %d", limit, i, (*order)[i], (*refOrder)[i])
			}
		}
		if limit == 1 && chunks < int(ref.Fired()) {
			t.Fatalf("limit 1 took %d chunks for %d events", chunks, ref.Fired())
		}
	}
}

// TestRunChunkLimit: a chunk never exceeds its event limit.
func TestRunChunkLimit(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		e.At(Time(i), func() {})
	}
	fired, more := e.RunChunk(30)
	if fired != 30 || !more {
		t.Fatalf("RunChunk(30) = (%d, %v), want (30, true)", fired, more)
	}
	fired, more = e.RunChunk(1000)
	if fired != 70 || more {
		t.Fatalf("second chunk = (%d, %v), want (70, false)", fired, more)
	}
}

// TestRunChunkIdleFunc: the idle func fires at queue drains inside a
// chunk, and work it schedules keeps the chunk going — identical to
// Run's quiescent-point contract.
func TestRunChunkIdleFunc(t *testing.T) {
	e := NewEngine()
	rounds := 0
	e.SetIdleFunc(func() {
		if rounds < 3 {
			rounds++
			e.After(5, func() {})
		}
	})
	e.At(0, func() {})
	fired, more := e.RunChunk(1 << 20)
	if more {
		t.Fatal("chunk reported work remaining after full drain")
	}
	if rounds != 3 {
		t.Fatalf("idle func ran %d rounds, want 3", rounds)
	}
	if fired != 4 { // the seed event + one per idle round
		t.Fatalf("fired %d events, want 4", fired)
	}
}
