package sim

// Differential property test: the timing-wheel Engine must be
// observationally equivalent to a reference engine built on
// container/heap and ordered by (time, sequence number). Both engines
// are driven by identical randomized scripts of schedule /
// nested-schedule / cancel / Step / Run / RunChunk operations (a
// RunChunk at a random limit is the pause and resume Machine.RunContext
// does), and must produce identical firing logs, clocks, and counters. Any
// ordering bug in slot placement, cascading, lazy delete or the base
// reset shows up as a log divergence.

import (
	"container/heap"
	"math/rand"
	"testing"
)

// ---------------------------------------------------------------------
// Reference engine: binary heap ordered by (at, seq), eager delete.

type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	idx  int
	dead bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type refEngine struct {
	now   Time
	seq   uint64
	queue refHeap
	fired uint64
}

func (e *refEngine) at(t Time, fn func()) *refEvent {
	if t < e.now {
		panic("refEngine: scheduling in the past")
	}
	ev := &refEvent{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

func (e *refEngine) cancel(ev *refEvent) {
	if ev == nil || ev.dead || ev.idx < 0 || ev.idx >= len(e.queue) || e.queue[ev.idx] != ev {
		return
	}
	ev.dead = true
	heap.Remove(&e.queue, ev.idx)
}

func (e *refEngine) step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*refEvent)
	e.now = ev.at
	e.fired++
	ev.fn()
	return true
}

func (e *refEngine) run() {
	for e.step() {
	}
}

func (e *refEngine) runChunk(limit uint64) {
	for i := uint64(0); i < limit && e.step(); i++ {
	}
}

// ---------------------------------------------------------------------
// Generic driver. The script's rng decisions are consumed inside event
// callbacks, so identical firing order implies identical rng streams;
// a firing-order divergence breaks the streams apart and the logs with
// them, which is exactly the failure the test exists to catch.

type fireRec struct {
	id int
	at Time
}

type diffDriver struct {
	rng  *rand.Rand
	log  []fireRec
	next int

	// Engine hooks, bound by the two adapters below.
	now      func() Time
	schedule func(t Time, fn func()) (cancel func())
	step     func() bool
	run      func()
	runChunk func(limit uint64)

	// live cancel funcs for still-pending events, keyed by event id.
	live map[int]func()
}

func (d *diffDriver) spawn(at Time) {
	id := d.next
	d.next++
	cancel := d.schedule(at, func() {
		d.log = append(d.log, fireRec{id: id, at: d.now()})
		delete(d.live, id)
		r := d.rng.Intn(100)
		switch {
		case r < 35:
			// Schedule 1-2 follow-ups a short distance ahead (the
			// near-monotonic hot path, including zero-delay at ties).
			n := 1 + d.rng.Intn(2)
			for i := 0; i < n; i++ {
				d.spawn(d.now() + Time(d.rng.Intn(64)))
			}
		case r < 45:
			// Cancel a random still-pending event.
			d.cancelRandom()
		}
	})
	d.live[id] = cancel
}

func (d *diffDriver) cancelRandom() {
	if len(d.live) == 0 {
		return
	}
	// Deterministic victim choice: smallest id >= a random threshold.
	k := d.rng.Intn(d.next)
	victim := -1
	for id := range d.live {
		if id >= k && (victim < 0 || id < victim) {
			victim = id
		}
	}
	if victim < 0 {
		return
	}
	d.live[victim]()
	delete(d.live, victim)
}

// runScript drives one engine through the scripted scenario for seed.
func runScript(seed int64, d *diffDriver) {
	d.rng = rand.New(rand.NewSource(seed))
	d.live = make(map[int]func())
	rounds := 2 + d.rng.Intn(3)
	for r := 0; r < rounds; r++ {
		batch := 4 + d.rng.Intn(24)
		base := d.now()
		for i := 0; i < batch; i++ {
			gap := d.rng.Intn(4)
			var at Time
			switch gap {
			case 0: // dense / tie-heavy
				at = base + Time(d.rng.Intn(8))
			case 1: // moderate, mostly inside one level-0 epoch
				at = base + Time(d.rng.Intn(512))
			case 2: // sparse: levels 1-2 and their cascades
				at = base + Time(d.rng.Intn(1<<22))
			default: // far future, 2^16 to 2^40 ns: up to level 5
				sh := 16 + d.rng.Intn(24)
				at = base + Time(1)<<sh + Time(d.rng.Int63n(1<<sh))
			}
			d.spawn(at)
		}
		// Cancel a few before running anything.
		for i := d.rng.Intn(4); i > 0; i-- {
			d.cancelRandom()
		}
		switch d.rng.Intn(4) {
		case 0:
			for i := d.rng.Intn(6); i > 0; i-- {
				d.step()
			}
		case 1:
			// Pause mid-schedule, often with far events still waiting
			// in upper-level slots; the next round schedules at the
			// paused clock.
			for i := 1 + d.rng.Intn(3); i > 0; i-- {
				d.runChunk(uint64(1 + d.rng.Intn(48)))
			}
		case 2:
			d.run()
		case 3:
			// Schedule-only round: let pending events pile up.
		}
	}
	// One event near the end of time: every level cascades on the way
	// down to it. Its follow-ups stay far below the wrap.
	d.spawn(^Time(0) - Time(d.rng.Intn(1<<20)))
	d.run()
}

func bindReal(e *Engine) *diffDriver {
	d := &diffDriver{}
	d.now = e.Now
	d.schedule = func(t Time, fn func()) func() {
		ev := e.At(t, fn)
		return func() { e.Cancel(ev) }
	}
	d.step = e.Step
	d.run = func() { e.Run() }
	d.runChunk = func(limit uint64) { e.RunChunk(limit) }
	return d
}

func bindRef(e *refEngine) *diffDriver {
	d := &diffDriver{}
	d.now = func() Time { return e.now }
	d.schedule = func(t Time, fn func()) func() {
		ev := e.at(t, fn)
		return func() { e.cancel(ev) }
	}
	d.step = e.step
	d.run = e.run
	d.runChunk = e.runChunk
	return d
}

func TestDifferentialEngineVsHeap(t *testing.T) {
	sequences := 10000
	if testing.Short() {
		sequences = 1500
	}
	for seed := int64(0); seed < int64(sequences); seed++ {
		real := NewEngine()
		ref := &refEngine{}
		dReal := bindReal(real)
		dRef := bindRef(ref)
		runScript(seed, dReal)
		runScript(seed, dRef)

		if len(dReal.log) != len(dRef.log) {
			t.Fatalf("seed %d: fired %d events, reference fired %d",
				seed, len(dReal.log), len(dRef.log))
		}
		for i := range dReal.log {
			if dReal.log[i] != dRef.log[i] {
				t.Fatalf("seed %d: firing %d diverged: got {id %d at %v}, reference {id %d at %v}",
					seed, i, dReal.log[i].id, dReal.log[i].at, dRef.log[i].id, dRef.log[i].at)
			}
		}
		if real.Now() != ref.now {
			t.Fatalf("seed %d: clock %v, reference %v", seed, real.Now(), ref.now)
		}
		if real.Fired() != ref.fired {
			t.Fatalf("seed %d: fired counter %d, reference %d", seed, real.Fired(), ref.fired)
		}
		if real.Pending() != 0 {
			t.Fatalf("seed %d: %d events still pending after drain", seed, real.Pending())
		}
	}
}

// ---------------------------------------------------------------------
// Directed tests for wheel edge paths the property test reaches only
// probabilistically.

// wantOrder fails t unless got equals want.
func wantOrder[T comparable](t *testing.T, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d is %v, want %v (full order %v)", i, got[i], want[i], got)
		}
	}
}

// TestFarFutureSingleEvent: a lone event far beyond level 0 is found by
// cascading down every level in between.
func TestFarFutureSingleEvent(t *testing.T) {
	for _, at := range []Time{1 << 30, 1<<50 + 12345, ^Time(0)} {
		e := NewEngine()
		firedAt := Time(0)
		e.At(at, func() { firedAt = e.Now() })
		if n := e.Run(); n != 1 {
			t.Fatalf("ran %d events, want 1", n)
		}
		if firedAt != at {
			t.Fatalf("fired at %v, want %v", firedAt, at)
		}
	}
}

// TestInsertAtNowAfterFarDrain: after the clock has jumped far ahead,
// an insert just after now must still dequeue before a later one.
func TestInsertAtNowAfterFarDrain(t *testing.T) {
	e := NewEngine()
	var order []Time
	rec := func() { order = append(order, e.Now()) }
	e.At(1_000_000, rec)
	e.Run()
	e.At(e.Now()+5, rec)
	e.At(e.Now()+5_000_000, rec)
	e.At(e.Now()+1, rec)
	e.Run()
	wantOrder(t, order, []Time{1_000_000, 1_000_001, 1_000_005, 6_000_000})
}

// TestMostlyCanceledQueue cancels far more events than survive and
// checks the survivors still fire in order.
func TestMostlyCanceledQueue(t *testing.T) {
	e := NewEngine()
	var fired []Time
	const n = 4096
	evs := make([]*Event, 0, n)
	for i := 0; i < n; i++ {
		at := Time(i * 3)
		evs = append(evs, e.At(at, func() { fired = append(fired, e.Now()) }))
	}
	for i, ev := range evs {
		if i%64 != 0 {
			e.Cancel(ev)
		}
	}
	if got, want := e.Pending(), n/64; got != want {
		t.Fatalf("pending %d, want %d", got, want)
	}
	e.Run()
	if len(fired) != n/64 {
		t.Fatalf("fired %d, want %d", len(fired), n/64)
	}
	for i, at := range fired {
		if want := Time(i * 64 * 3); at != want {
			t.Fatalf("firing %d at %v, want %v", i, at, want)
		}
	}
}

// TestCancelAllThenScheduleAtNow cancels every pending event, level 0
// and upper levels alike, drains, and schedules at now: the canceled
// entries must not leave the wheel's base ahead of the clock.
func TestCancelAllThenScheduleAtNow(t *testing.T) {
	e := NewEngine()
	e.At(5000, func() {})
	e.Run()
	var evs []*Event
	for _, d := range []Time{0, 1, 700, 3000, 1 << 20, 1 << 40, ^Time(0) - 5000} {
		evs = append(evs, e.After(d, func() { t.Fatal("canceled event fired") }))
	}
	for _, ev := range evs {
		e.Cancel(ev)
	}
	if n := e.Run(); n != 0 || e.Now() != 5000 || e.Pending() != 0 {
		t.Fatalf("Run fired %d, now %v, pending %d; want 0, 5000ns, 0", n, e.Now(), e.Pending())
	}
	var order []Time
	rec := func() { order = append(order, e.Now()) }
	e.At(^Time(0), rec) // the last canceled event's level-0 epoch
	e.At(5001, rec)
	e.At(5000, rec)
	e.At(6000, rec)
	e.Run()
	wantOrder(t, order, []Time{5000, 5001, 6000, ^Time(0)})
}

// TestTieAcrossCascade: two events at one time, the first scheduled
// while that time sits in level 1 and the second after it has cascaded
// to level 0, fire in schedule order.
func TestTieAcrossCascade(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(5000, func() { order = append(order, "first") })
	e.At(4096, func() { // same level-1 slot: this pop cascades 5000 down
		order = append(order, "cascade")
		e.At(5000, func() { order = append(order, "second") })
	})
	e.Run()
	wantOrder(t, order, []string{"cascade", "first", "second"})
}

// TestTiesOnEpochBoundary: ties at k*l0Slots-1 (the last level-0 slot
// of an epoch) and k*l0Slots (the first of the next, initially in level 1)
// fire by time, then by schedule order, including events scheduled
// from inside the earlier tick.
func TestTiesOnEpochBoundary(t *testing.T) {
	for _, k := range []Time{1, 3, 64, 4097} {
		e := NewEngine()
		lo, hi := k*l0Slots-1, k*l0Slots
		var order []string
		rec := func(s string) func() { return func() { order = append(order, s) } }
		e.At(hi, rec("h0"))
		e.At(lo, rec("l0"))
		e.At(hi, rec("h1"))
		e.At(lo, func() {
			order = append(order, "l1")
			e.At(hi, rec("h3"))
			e.At(lo, rec("l2"))
		})
		e.At(hi, rec("h2"))
		e.Run()
		wantOrder(t, order, []string{"l0", "l1", "l2", "h0", "h1", "h2", "h3"})
	}
}
