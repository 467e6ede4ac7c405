// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is a single-threaded event queue ordered by time, with
// ties broken by insertion order, which makes every simulation fully
// deterministic for a given input. All Cenju-4 component models
// (switches, caches, protocol modules, processors) schedule work
// through one Engine.
//
// Events fire in one loop: Step fires the earliest event, and RunChunk
// fires up to a limit of them, offering every queue drain to the idle
// func. Run is RunChunk without a limit. Simulations run to quiescence;
// a caller that must stop early (a cancelled context, an event budget)
// stops between chunks, which leaves the event sequence unchanged.
//
// The queue is a hierarchical timing wheel (see wheel.go) whose layout
// gives that order without comparing keys; the differential test in
// wheel_test.go proves it dequeue-equivalent to a reference binary heap.
// Event records are pooled: once an event has fired, the engine
// recycles its storage for a later At/After. The *Event handle returned
// by At/After is therefore valid for Cancel/Canceled only until the
// event fires; retaining a handle past that point and using it may
// observe an unrelated recycled event. Canceled events are never
// recycled, so a canceled handle's Canceled() stays true indefinitely.
// No simulation model in this repository retains handles past firing.
package sim

import "fmt"

// Time is simulated time in nanoseconds.
type Time uint64

// Nanoseconds returns t as a plain uint64 nanosecond count.
func (t Time) Nanoseconds() uint64 { return uint64(t) }

// Microseconds returns t converted to microseconds as a float.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

func (t Time) String() string { return fmt.Sprintf("%dns", uint64(t)) }

// Event is a unit of scheduled work, fired as fnc(arg): At's closure
// rides as callClosure's argument (a func converts to any without
// allocating). A fired record keeps fnc and arg until its next
// At/AtCall overwrites them; every argument the simulator schedules is
// a closure or a record its machine owns anyway.
type Event struct {
	at     Time
	fnc    func(any)
	arg    any
	next   uint32 // id of the next event in its wheel slot or the free list (see wheel.go)
	dead   bool   // canceled before firing
	queued bool   // currently in the wheel
}

// Canceled reports whether the event was canceled before firing. Only
// meaningful while the handle is valid (see the package comment on
// event recycling).
func (e *Event) Canceled() bool { return e.dead }

// When returns the time the event is scheduled for.
func (e *Event) When() Time { return e.at }

// Engine is a discrete-event simulation engine. Create engines with
// NewEngine.
type Engine struct {
	idle  func()
	now   Time
	fired uint64
	queue wheel // also owns the pooled event records
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue (canceled
// events do not count).
func (e *Engine) Pending() int { return e.queue.live }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a model bug. Scheduling while no run is
// in progress is allowed; the event waits for the next Run or
// RunChunk.
//
//cenju4:hotpath
func (e *Engine) At(t Time, fn func()) *Event {
	return e.AtCall(t, callClosure, fn)
}

// callClosure is At's callback: its argument is the scheduled closure.
func callClosure(fn any) { fn.(func())() }

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
	id, ev := e.queue.alloc()
	// Field stores: a composite literal copies a temporary, barriered.
	ev.at, ev.fnc, ev.arg, ev.queued = t, fn, arg, true
	e.queue.push(id, ev)
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
	e.queue.live--
	e.queue.dead++
}

// Step executes the single earliest event. It reports false when the
// queue is empty.
//
//cenju4:hotpath
func (e *Engine) Step() bool {
	id, ev := e.queue.next(e.now)
	if ev == nil {
		return false
	}
	e.fireEvent(id, ev)
	return true
}

// fireEvent advances the clock to event id (stored at ev), returns its
// record to the pool and then runs its callback.
//
//cenju4:hotpath
func (e *Engine) fireEvent(id uint32, ev *Event) {
	e.now = ev.at
	e.fired++
	ev.queued = false
	ev.next, e.queue.free = e.queue.free, id
	ev.fnc(ev.arg)
}

// SetIdleFunc installs fn (nil removes it), invoked by Run and
// RunChunk every time the event queue drains — the machine's quiescent
// points. fn may schedule new events; the run then continues. Drivers
// that inject work in rounds therefore get one callback per round
// without hand-rolling idle detection.
func (e *Engine) SetIdleFunc(fn func()) { e.idle = fn }

// Run executes events until the queue drains with nothing rescheduled
// by the idle func, and returns the number of events executed by this
// call. It is RunChunk without a limit.
func (e *Engine) Run() uint64 {
	n, _ := e.RunChunk(^uint64(0))
	return n
}

// RunChunk executes at most limit events and reports how many fired
// and whether work remains queued. It is the engine's one run loop:
// the idle func fires at every queue drain, and a drain with nothing
// rescheduled ends the chunk early with more=false. Callers that need
// to interleave the simulation with outside checks — Machine.RunContext
// polls a context for cancellation and enforces an event budget
// between chunks — loop over RunChunk until more is false; the event
// sequence is identical to one Run call, so chunked execution cannot
// perturb a result digest. Between chunks the engine is paused, not
// quiescent: events may be scheduled and canceled, and the idle func
// has not been told of a drain.
//
// When the event limit lands exactly on a queue drain, the drain has
// not yet been offered to the idle func; RunChunk then reports
// more=true so the next call delivers the callback (which may refill
// the queue). A finished simulation costs at most one extra call that
// fires zero events.
func (e *Engine) RunChunk(limit uint64) (fired uint64, more bool) {
	start := e.fired
	for e.fired-start < limit {
		if id, ev := e.queue.next(e.now); ev != nil {
			e.fireEvent(id, ev) // Step, inlined by hand: the per-event loop
			continue
		}
		if e.idle != nil {
			e.idle()
		}
		if e.Pending() == 0 {
			return e.fired - start, false
		}
	}
	return e.fired - start, e.Pending() > 0 || e.idle != nil
}
