package sim

// Explicit tests for the Stop() contract documented on Engine.Stop,
// Engine.Run and Engine.SetIdleFunc: Stop pauses the current run
// without draining or canceling anything, does not count as
// quiescence, and does not persist across Run calls.

import (
	"fmt"
	"testing"
)

// TestStopLeavesPendingEventsQueued: events not yet fired when Stop
// takes effect stay queued (not canceled) and fire on the next Run.
func TestStopLeavesPendingEventsQueued(t *testing.T) {
	e := NewEngine()
	var fired []Time
	rec := func() { fired = append(fired, e.Now()) }
	e.At(10, func() { rec(); e.Stop() })
	ev := e.At(20, rec)
	e.At(30, rec)

	if n := e.Run(); n != 1 {
		t.Fatalf("first Run fired %d events, want 1 (stopped after the first)", n)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending %d after Stop, want 2", e.Pending())
	}
	if ev.Canceled() {
		t.Fatal("Stop marked a pending event canceled; Stop must not cancel")
	}
	if n := e.Run(); n != 2 {
		t.Fatalf("second Run fired %d events, want 2", n)
	}
	want := []Time{10, 20, 30}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firing order %v, want %v", fired, want)
		}
	}
}

// TestScheduleAfterStop: an engine paused by Stop still accepts At and
// After; the new events wait for the next Run and interleave correctly
// with the events that survived the Stop.
func TestScheduleAfterStop(t *testing.T) {
	e := NewEngine()
	var fired []Time
	rec := func() { fired = append(fired, e.Now()) }
	e.At(5, func() { rec(); e.Stop() })
	e.At(40, rec)
	e.Run()

	// Engine is stopped at t=5. Schedule between and after the survivor.
	e.At(20, rec)
	e.After(50, rec) // 5+50 = 55
	if e.Pending() != 3 {
		t.Fatalf("pending %d, want 3", e.Pending())
	}
	e.Run()
	want := []Time{5, 20, 40, 55}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestIdleFuncNotCalledOnStop: a Run that returns because of Stop is
// paused, not quiescent — the idle func must not fire. A later Run that
// actually drains the queue does invoke it.
func TestIdleFuncNotCalledOnStop(t *testing.T) {
	e := NewEngine()
	idles := 0
	e.SetIdleFunc(func() { idles++ })
	e.At(1, func() { e.Stop() })
	e.At(2, func() {})
	e.Run()
	if idles != 0 {
		t.Fatalf("idle func ran %d times during a stopped Run, want 0", idles)
	}
	e.Run()
	if idles != 1 {
		t.Fatalf("idle func ran %d times after draining Run, want 1", idles)
	}
}

// TestStopWhileNotRunningIsNoOp: Stop does not persist — the next
// Run/RunUntil clears it on entry and executes normally.
func TestStopWhileNotRunningIsNoOp(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(1, func() { fired++ })
	e.At(2, func() { fired++ })
	e.Stop()
	if n := e.Run(); n != 2 || fired != 2 {
		t.Fatalf("Run after idle Stop fired %d (count %d), want 2", n, fired)
	}

	e.At(e.Now()+1, func() { fired++ })
	e.Stop()
	e.RunUntil(e.Now() + 10)
	if fired != 3 {
		t.Fatalf("RunUntil after idle Stop fired %d total, want 3", fired)
	}
}

// TestStopDuringRunUntil: Stop inside a callback halts RunUntil before
// the deadline; the clock stays at the stopping event and is NOT
// advanced to the deadline.
func TestStopDuringRunUntil(t *testing.T) {
	e := NewEngine()
	e.At(10, func() { e.Stop() })
	e.At(20, func() {})
	e.RunUntil(100)
	if e.Now() != 10 {
		t.Fatalf("clock %v after Stop mid-RunUntil, want 10 (no deadline advance)", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d, want 1", e.Pending())
	}
	e.RunUntil(100)
	if e.Now() != 100 || e.Pending() != 0 {
		t.Fatalf("after resume: clock %v pending %d, want 100 and 0", e.Now(), e.Pending())
	}
}

// TestCanceledSurvivesStop: Event.Canceled keeps reporting true for a
// canceled (never-fired) handle across a Stop and subsequent Runs.
func TestCanceledSurvivesStop(t *testing.T) {
	e := NewEngine()
	canceledRan := false
	ev := e.At(30, func() { canceledRan = true })
	e.At(10, func() { e.Stop() })
	e.Cancel(ev)
	if !ev.Canceled() {
		t.Fatal("Canceled() false immediately after Cancel")
	}
	e.Run() // stops at t=10
	if !ev.Canceled() {
		t.Fatal("Canceled() false after a stopped Run")
	}
	e.Run() // drains
	if canceledRan {
		t.Fatal("canceled event ran")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() false after draining Run")
	}
}

// --- RunUntil idle parity with Run/RunChunk ---

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
// Run, RunChunk, and RunUntil on the same round-injecting workload.
// RunUntil historically skipped the idle func on queue drain, so
// quiescent hooks went dark under window-bounded execution.
func TestIdleCountParityAcrossRunModes(t *testing.T) {
	const rounds = 5
	const step = Time(10)

	runN := func(e *Engine) uint64 { return e.Run() }
	chunkN := func(e *Engine) uint64 {
		var total uint64
		for {
			n, more := e.RunChunk(3)
			total += n
			if !more {
				return total
			}
		}
	}
	untilN := func(e *Engine) uint64 { return e.RunUntil(Time(1_000_000)) }

	type result struct {
		fired uint64
		idles int
	}
	results := map[string]result{}
	for name, drive := range map[string]func(*Engine) uint64{
		"Run": runN, "RunChunk": chunkN, "RunUntil": untilN,
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

// TestRunUntilIdleRespectsDeadline checks that events the idle func
// schedules beyond the deadline stay queued: the idle func fires at
// the drain, but the window boundary still holds.
func TestRunUntilIdleRespectsDeadline(t *testing.T) {
	e := NewEngine()
	idles := 0
	e.SetIdleFunc(func() {
		idles++
		if idles == 1 {
			e.At(200, func() {}) // beyond the window
		}
	})
	e.At(50, func() {})
	fired := e.RunUntil(100)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (the t=50 event only)", fired)
	}
	if idles != 1 {
		t.Fatalf("idle count = %d, want 1 (single drain; t=200 refill is past deadline)", idles)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (idle-scheduled t=200 event held for next window)", e.Pending())
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want deadline 100", e.Now())
	}
}

// TestRunUntilIdleNotCalledOnStop: a stopped engine is paused, not
// quiescent — same rule Run follows.
func TestRunUntilIdleNotCalledOnStop(t *testing.T) {
	e := NewEngine()
	idles := 0
	e.SetIdleFunc(func() { idles++ })
	e.At(10, func() { e.Stop() })
	e.At(20, func() {})
	e.RunUntil(100)
	if idles != 0 {
		t.Fatalf("idle count = %d, want 0 after Stop", idles)
	}
}

// --- After/RunFor overflow diagnosis ---

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

func TestRunForOverflowPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	mustPanicContaining(t, "overflows sim.Time", func() {
		e.RunFor(^Time(0))
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
