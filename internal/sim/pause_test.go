package sim

// Tests for a run stopped between chunks, the only way a simulation
// stops before quiescence (Machine.RunContext stops there on a
// cancelled context or an exhausted event budget): the stop pauses the
// engine without draining or canceling anything, does not count as
// quiescence, and the next Run or RunChunk resumes the same schedule.

import (
	"fmt"
	"testing"
)

// TestStopLeavesPendingEventsQueued: events not yet fired when a chunk
// ends stay queued (not canceled) and fire on the next Run.
func TestStopLeavesPendingEventsQueued(t *testing.T) {
	e := NewEngine()
	var fired []Time
	rec := func() { fired = append(fired, e.Now()) }
	e.At(10, rec)
	ev := e.At(20, rec)
	e.At(30, rec)

	if n, more := e.RunChunk(1); n != 1 || !more {
		t.Fatalf("first chunk = (%d, %v), want (1, true)", n, more)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending %d after the chunk, want 2", e.Pending())
	}
	if ev.Canceled() {
		t.Fatal("a chunk boundary marked a pending event canceled")
	}
	if n := e.Run(); n != 2 {
		t.Fatalf("Run fired %d events, want 2", n)
	}
	wantOrder(t, fired, []Time{10, 20, 30})
}

// TestScheduleAfterStop: an engine paused between chunks still accepts
// At and After; the new events wait for the next Run and interleave
// correctly with the events that were already queued.
func TestScheduleAfterStop(t *testing.T) {
	e := NewEngine()
	var fired []Time
	rec := func() { fired = append(fired, e.Now()) }
	e.At(5, rec)
	e.At(40, rec)
	e.RunChunk(1)

	// Engine is paused at t=5. Schedule between and after the survivor.
	e.At(20, rec)
	e.After(50, rec) // 5+50 = 55
	if e.Pending() != 3 {
		t.Fatalf("pending %d, want 3", e.Pending())
	}
	e.Run()
	wantOrder(t, fired, []Time{5, 20, 40, 55})
}

// TestIdleFuncNotCalledOnStop: a chunk that ends at its limit is
// paused, not quiescent — the idle func must not fire. A later Run that
// actually drains the queue does invoke it.
func TestIdleFuncNotCalledOnStop(t *testing.T) {
	e := NewEngine()
	idles := 0
	e.SetIdleFunc(func() { idles++ })
	e.At(1, func() {})
	e.At(2, func() {})
	e.RunChunk(1)
	if idles != 0 {
		t.Fatalf("idle func ran %d times during a paused chunk, want 0", idles)
	}
	e.Run()
	if idles != 1 {
		t.Fatalf("idle func ran %d times after draining Run, want 1", idles)
	}
}

// TestCanceledSurvivesStop: Event.Canceled keeps reporting true for a
// canceled (never-fired) handle across a chunk boundary and the Run
// that drains the queue.
func TestCanceledSurvivesStop(t *testing.T) {
	e := NewEngine()
	canceledRan := false
	ev := e.At(30, func() { canceledRan = true })
	e.At(10, func() {})
	e.At(20, func() {})
	e.Cancel(ev)
	if !ev.Canceled() {
		t.Fatal("Canceled() false immediately after Cancel")
	}
	e.RunChunk(1) // pauses at t=10
	if !ev.Canceled() {
		t.Fatal("Canceled() false after a paused chunk")
	}
	e.Run() // drains
	if canceledRan {
		t.Fatal("canceled event ran")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() false after draining Run")
	}
}

// --- idle parity between Run and chunked runs ---

// driveRounds builds a workload whose driver injects one batch of
// events per idle callback, for `rounds` rounds, each batch `step` ns
// after the previous drain. Returns the engine and a pointer to the
// idle-callback count.
func driveRounds(rounds int, step Time) (*Engine, *int) {
	e := NewEngine()
	idles := 0
	round := 0
	e.SetIdleFunc(func() {
		idles++
		if round < rounds {
			round++
			e.After(step, func() {})
		}
	})
	e.After(step, func() {})
	return e, &idles
}

// TestIdleCountParityAcrossRunModes pins the idle-callback count of
// Run and of RunChunk loops on the same round-injecting workload,
// including chunk limits that land exactly on a queue drain.
func TestIdleCountParityAcrossRunModes(t *testing.T) {
	const rounds = 5
	const step = Time(10)

	chunkN := func(limit uint64) func(e *Engine) uint64 {
		return func(e *Engine) uint64 {
			var total uint64
			for {
				n, more := e.RunChunk(limit)
				total += n
				if !more {
					return total
				}
			}
		}
	}

	type result struct {
		fired uint64
		idles int
	}
	results := map[string]result{}
	for name, drive := range map[string]func(*Engine) uint64{
		"Run":        func(e *Engine) uint64 { return e.Run() },
		"RunChunk/1": chunkN(1),
		"RunChunk/3": chunkN(3),
	} {
		e, idles := driveRounds(rounds, step)
		fired := drive(e)
		results[name] = result{fired, *idles}
	}

	want := results["Run"]
	if want.idles != rounds+1 {
		t.Fatalf("Run: idle count = %d, want %d (one per round + final drain)", want.idles, rounds+1)
	}
	for name, got := range results {
		if got != want {
			t.Errorf("%s: (fired=%d, idles=%d), want (fired=%d, idles=%d) as in Run",
				name, got.fired, got.idles, want.fired, want.idles)
		}
	}
}

// --- After overflow diagnosis ---

func mustPanicContaining(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want panic mentioning %q", substr)
		}
		msg := fmt.Sprint(r)
		if !contains(msg, substr) {
			t.Fatalf("panic %q does not mention %q", msg, substr)
		}
	}()
	fn()
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestAfterOverflowPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	// now = 100; adding ^Time(0) wraps to 99 — in the past. Without the
	// check this would surface as a misleading scheduling-in-the-past
	// panic; the overflow diagnosis names the real bug.
	mustPanicContaining(t, "overflows sim.Time", func() {
		e.After(^Time(0), func() {})
	})
}

func TestAfterMaxNonWrappingDelayOK(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	// The largest delay that does not wrap must still be accepted.
	ev := e.After(^Time(0)-100, func() {})
	if ev.When() != ^Time(0) {
		t.Fatalf("When = %v, want max Time", ev.When())
	}
}
