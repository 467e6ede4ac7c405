// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is a single-threaded event queue ordered by (time, sequence
// number). Ties on time are broken by insertion order, which makes every
// simulation fully deterministic for a given input. All Cenju-4 component
// models (switches, caches, protocol modules, processors) schedule work
// through one Engine.
//
// The queue is a lazy-delete bucketed calendar queue (see calqueue.go),
// chosen for the simulator's near-monotonic schedule pattern; the
// differential test in calqueue_test.go proves it dequeue-equivalent to
// the reference binary heap. Event records are pooled: once an event
// has fired, the engine recycles its storage for a later At/After. The
// *Event handle returned by At/After is therefore valid for
// Cancel/Canceled only until the event fires; retaining a handle past
// that point and using it may observe an unrelated recycled event.
// Canceled events are never recycled, so a canceled handle's Canceled()
// stays true indefinitely. No simulation model in this repository
// retains handles past firing.
package sim

import "fmt"

// Time is simulated time in nanoseconds.
type Time uint64

// Nanoseconds returns t as a plain uint64 nanosecond count.
func (t Time) Nanoseconds() uint64 { return uint64(t) }

// Microseconds returns t converted to microseconds as a float.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

func (t Time) String() string { return fmt.Sprintf("%dns", uint64(t)) }

// Event is a unit of scheduled work: either a plain callback (fn, from
// At/After) or a callback-with-argument (fnc+arg, from AtCall — the
// allocation-free form: a package-level func plus a pointer-shaped
// argument needs no closure object per event).
type Event struct {
	at     Time
	seq    uint64
	fn     func()
	fnc    func(any)
	arg    any
	next   *Event // intrusive calendar-queue bucket link (see calqueue.go)
	dead   bool   // canceled before firing
	queued bool   // currently in the calendar queue
}

// Canceled reports whether the event was canceled before firing. Only
// meaningful while the handle is valid (see the package comment on
// event recycling).
func (e *Event) Canceled() bool { return e.dead }

// When returns the time the event is scheduled for.
func (e *Event) When() Time { return e.at }

// Engine is a discrete-event simulation engine.
//
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   calQueue
	fired   uint64
	stopped bool
	idle    func()

	// free and chunk implement the event pool: fired events return to
	// free; fresh events are carved from chunk in blocks so one
	// allocation covers eventChunk schedules.
	free  []*Event
	chunk []Event
}

const eventChunk = 256

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.queue.init()
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue (canceled
// events do not count).
func (e *Engine) Pending() int { return e.queue.size }

// alloc returns a zeroed event record from the pool.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	if len(e.chunk) == 0 {
		//cenju4:alloc-ok one block allocation amortizes over eventChunk schedules
		e.chunk = make([]Event, eventChunk)
	}
	ev := &e.chunk[0]
	e.chunk = e.chunk[1:]
	return ev
}

// recycle returns a finished event record to the pool.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.fnc = nil
	ev.arg = nil
	ev.queued = false
	e.free = append(e.free, ev)
}

// fire runs the event's callback after the record has been recycled.
func fire(fn func(), fnc func(any), arg any) {
	if fnc != nil {
		fnc(arg)
		return
	}
	fn()
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a model bug. Scheduling while the engine
// is stopped (or after Stop, before the next Run) is allowed; the event
// waits for the next Run/RunUntil.
//
//cenju4:hotpath
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	*ev = Event{at: t, seq: e.seq, fn: fn, queued: true}
	e.seq++
	e.queue.push(ev)
	return ev
}

// AtCall schedules fn(arg) at absolute time t. It is the
// allocation-free variant of At for per-event scheduling on hot paths:
// fn is typically a package-level function (a static func value) and
// arg a pointer to a pooled record, so — unlike an At closure capturing
// the same state — nothing escapes to the heap per event. Semantics
// (ordering, panics, Cancel) are identical to At.
//
//cenju4:hotpath
func (e *Engine) AtCall(t Time, fn func(any), arg any) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	*ev = Event{at: t, seq: e.seq, fnc: fn, arg: arg, queued: true}
	e.seq++
	e.queue.push(ev)
	return ev
}

// After schedules fn to run d nanoseconds from now. A delay so large
// that now+d wraps around sim.Time panics with an overflow diagnosis
// (without the check the wrapped value would trip At's
// scheduling-in-the-past panic, blaming the wrong bug).
//
//cenju4:hotpath
func (e *Engine) After(d Time, fn func()) *Event {
	t := e.now + d
	if t < e.now {
		panic(fmt.Sprintf("sim: After(%v) from now %v overflows sim.Time", d, e.now))
	}
	return e.At(t, fn)
}

// Cancel removes a pending event. Canceling an already-fired or
// already-canceled event (while its handle is still valid) is a no-op,
// as is canceling nil. Cancellation is lazy: the entry is dropped when
// the queue next scans it. Canceled records are not pooled, so the
// handle's Canceled() result stays valid indefinitely.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.dead || !ev.queued {
		return
	}
	ev.dead = true
	ev.queued = false
	e.queue.size--
	e.queue.dead++
}

// Step executes the single earliest event. It reports false when the
// queue is empty.
//
//cenju4:hotpath
func (e *Engine) Step() bool {
	ev := e.queue.pop()
	if ev == nil {
		return false
	}
	e.fireEvent(ev)
	return true
}

// fireEvent advances the clock to ev and runs its callback.
//
//cenju4:hotpath
func (e *Engine) fireEvent(ev *Event) {
	e.now = ev.at
	e.fired++
	fn, fnc, arg := ev.fn, ev.fnc, ev.arg
	e.recycle(ev)
	fire(fn, fnc, arg)
}

// SetIdleFunc installs fn (nil removes it), invoked by Run every time
// the event queue drains — the machine's quiescent points. fn may
// schedule new events; Run then continues. Drivers that inject work in
// rounds therefore get one callback per round without hand-rolling
// idle detection. The idle func is NOT invoked when Run returns because
// of Stop: a stopped engine is paused mid-schedule, not quiescent.
func (e *Engine) SetIdleFunc(fn func()) { e.idle = fn }

// Run executes events until the queue drains or Stop is called. It
// returns the number of events executed by this call. Run clears any
// Stop left from an earlier call first, so a Stop issued while the
// engine is not running has no effect on the next Run.
func (e *Engine) Run() uint64 {
	start := e.fired
	e.stopped = false
	for !e.stopped {
		if e.Step() {
			continue
		}
		if e.idle != nil {
			e.idle()
		}
		if e.Pending() == 0 {
			break
		}
	}
	return e.fired - start
}

// RunChunk executes at most limit events and reports how many fired
// and whether work remains queued. It is Run sliced into bounded
// pieces: the idle func fires at every queue drain exactly as in Run,
// and a drain with nothing rescheduled ends the chunk early with
// more=false. Callers that need to interleave the simulation with
// outside checks — the serve layer polls a context for cancellation
// and enforces an event budget between chunks — loop over RunChunk
// until more is false; the event sequence is identical to one Run
// call, so chunked execution cannot perturb a result digest. Like Run
// it clears a stale Stop on entry and returns early (with more
// reporting the queue state) when Stop is called mid-chunk.
//
// When the event limit lands exactly on a queue drain, the drain has
// not yet been offered to the idle func; RunChunk then reports
// more=true so the next call delivers the callback (which may refill
// the queue). A finished simulation costs at most one extra call that
// fires zero events.
func (e *Engine) RunChunk(limit uint64) (fired uint64, more bool) {
	start := e.fired
	e.stopped = false
	for !e.stopped && e.fired-start < limit {
		if e.Step() {
			continue
		}
		if e.idle != nil {
			e.idle()
		}
		if e.Pending() == 0 {
			return e.fired - start, false
		}
	}
	if e.stopped {
		return e.fired - start, e.Pending() > 0
	}
	return e.fired - start, e.Pending() > 0 || e.idle != nil
}

// RunUntil executes events with time <= deadline. Events scheduled past
// the deadline remain queued; the clock is left at the last fired event
// (or advanced to the deadline if nothing fired at it). The idle func
// is invoked at every queue drain, exactly as in Run and RunChunk, so
// quiescent-point hooks (Machine.AutoValidate, round-injecting drivers)
// keep firing under window-bounded execution; events the idle func
// schedules at or before the deadline run within this call. Like Run it
// clears a stale Stop on entry and returns early when Stop is called.
//
//cenju4:hotpath
func (e *Engine) RunUntil(deadline Time) uint64 {
	start := e.fired
	e.stopped = false
	for !e.stopped {
		ev := e.queue.pop()
		if ev == nil {
			// True drain: give the idle func its quiescent point; if it
			// refills the queue, keep going (Run behaves identically).
			if e.idle != nil {
				e.idle()
				if e.Pending() > 0 {
					continue
				}
			}
			break
		}
		if ev.at > deadline {
			e.queue.push(ev) // not due: put it back (seq preserved)
			break
		}
		e.fireEvent(ev)
	}
	if e.now < deadline && !e.stopped {
		e.now = deadline
	}
	return e.fired - start
}

// RunFor runs events within the next d nanoseconds (see RunUntil). A
// horizon so large that now+d wraps around sim.Time panics with an
// overflow diagnosis rather than a misleading result.
func (e *Engine) RunFor(d Time) uint64 {
	deadline := e.now + d
	if deadline < e.now {
		panic(fmt.Sprintf("sim: RunFor(%v) from now %v overflows sim.Time", d, e.now))
	}
	return e.RunUntil(deadline)
}

// Stop makes the current Run/RunUntil call return after the current
// event completes. Pending events stay queued and fire on the next
// Run/RunUntil; events may still be scheduled and canceled while the
// engine is stopped. Stop does not persist: the next Run/RunUntil
// clears it on entry, so stopping an engine that is not running is a
// no-op.
func (e *Engine) Stop() { e.stopped = true }
