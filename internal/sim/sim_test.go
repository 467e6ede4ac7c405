package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

// TestEventSize pins the pooled event record at 48 bytes: no sequence
// number (the wheel's slot order replaces it) and a 32-bit id link.
func TestEventSize(t *testing.T) {
	if sz := unsafe.Sizeof(Event{}); sz != 48 {
		t.Fatalf("sizeof(Event) = %d, want 48", sz)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-time events out of insertion order: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.At(100, func() {
		e.After(50, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 150 {
		t.Fatalf("After fired at %v, want 150", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("event not marked canceled")
	}
	// Double-cancel and cancel-nil must be harmless.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestCancelMiddleOfQueue(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(10, func() { order = append(order, 1) })
	ev := e.At(20, func() { order = append(order, 2) })
	e.At(30, func() { order = append(order, 3) })
	e.Cancel(ev)
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("order = %v, want [1 3]", order)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	depth := 0
	var grow func()
	grow = func() {
		depth++
		if depth < 100 {
			e.After(1, grow)
		}
	}
	e.At(0, grow)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 99 {
		t.Fatalf("Now() = %v, want 99", e.Now())
	}
}

// Property: regardless of insertion order, events fire in nondecreasing
// time order.
func TestPropertyMonotonicFiring(t *testing.T) {
	f := func(times []uint32) bool {
		e := NewEngine()
		var fired []Time
		for _, raw := range times {
			at := Time(raw % 10000)
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: canceling a random subset fires exactly the complement.
func TestPropertyCancelSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 100; iter++ {
		e := NewEngine()
		n := 1 + rng.Intn(50)
		fired := make([]bool, n)
		evs := make([]*Event, n)
		for i := 0; i < n; i++ {
			i := i
			evs[i] = e.At(Time(rng.Intn(1000)), func() { fired[i] = true })
		}
		canceled := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				canceled[i] = true
				e.Cancel(evs[i])
			}
		}
		e.Run()
		for i := 0; i < n; i++ {
			if fired[i] == canceled[i] {
				t.Fatalf("iter %d event %d: fired=%v canceled=%v", iter, i, fired[i], canceled[i])
			}
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.At(Time(j%97), func() {})
		}
		e.Run()
	}
}
