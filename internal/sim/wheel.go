package sim

import "math/bits"

// wheel is the engine's event queue: a hierarchical timing wheel
// (Varghese & Lauck, SOSP 1987) over integer-nanosecond time.
//
// Level 0 holds 2^12 one-nanosecond slots for the epoch (the aligned
// 2^12 ns block) that contains base: the most one summary word indexes,
// and wide enough that a processor quantum or a protocol step rarely
// lands past it and has to cascade. Each upper level holds 64 slots,
// each covering one whole epoch of the level below, so 12 + 9*6 bits
// place every Time (the top level uses 4). An event lives at the lowest
// level where its time and base agree on every higher bit. Each slot is
// a FIFO list of event ids linked through Event.next; per-level bitmaps
// (plus a summary word for level 0) find the next non-empty slot with
// bits.TrailingZeros64. When level 0 is empty the lowest non-empty
// upper slot is cascaded: base moves to the slot's start and its events
// are relinked one level or more down.
//
// Ordering comes from the structure, with no key comparison. Events for
// one time always share one slot and sit there in schedule order: a
// cascade only runs while every lower level is empty, and it relinks in
// list order. So events dequeue in ascending (time, schedule order),
// the order of the reference heap in wheel_test.go.
//
// Invariants:
//   - base is at most every queued time, and at most the engine's now
//     whenever next is not running. A cascade moves base to a slot
//     start, which is at most every queued time; next then returns a
//     live event at or after that start, and firing it brings the clock
//     up to base before anything else can be scheduled.
//   - When no live event remains, base is reset to now, and the lists
//     are cleared if canceled entries remain; next never cascades once
//     no live event remains. Otherwise cascading a slot that holds only
//     canceled events would move base past now, and a later schedule at
//     now would land in the wrong slot.
//
// Event records live in fixed slabs addressed by id (0 is the empty
// list), so *Event handles stay stable and the queue itself holds no
// pointers: links and moves take no GC write barriers. Fired records
// return to the free list, linked through Event.next like a slot (a
// fired record is in no slot); canceled ones are never reused.
type wheel struct {
	slabs []*[slabSize]Event
	free  uint32 // head of the fired-record free list (0 = empty)
	ids   uint32 // highest id handed out
	base  Time
	live  int // queued and not canceled
	dead  int // canceled, still linked in a slot
	// The 37 KB of slots come with the first slab, so an engine that has
	// not scheduled yet (a machine under construction) does not carry
	// them, and they hold no pointer for the garbage collector to scan.
	*slots
}

type slots struct {
	l0     [l0Slots]slotList
	l0bits [l0Slots / 64]uint64
	l0sum  uint64 // bit w set: l0bits[w] != 0
	up     [upLevels][upSlots]slotList
	upbits [upLevels]uint64
	upsum  uint64 // bit l set: upbits[l] != 0
}

const (
	l0Bits   = 12
	l0Slots  = 1 << l0Bits
	upBits   = 6
	upSlots  = 1 << upBits
	upLevels = 9
	slabSize = 256
)

type slotList struct{ head, tail uint32 }

func (w *wheel) ev(id uint32) *Event { return &w.slabs[id/slabSize][id%slabSize] }

// alloc returns a record id and its storage, reusing a fired record
// when one is free.
//
//cenju4:hotpath
func (w *wheel) alloc() (uint32, *Event) {
	if id := w.free; id != 0 {
		ev := w.ev(id)
		w.free = ev.next
		return id, ev
	}
	w.ids++
	if int(w.ids/slabSize) == len(w.slabs) {
		//cenju4:alloc-ok one slab amortizes over slabSize schedules
		w.slabs = append(w.slabs, new([slabSize]Event))
		if w.slots == nil {
			//cenju4:alloc-ok once per engine, at its first schedule
			w.slots = new(slots)
		}
	}
	return w.ids, w.ev(w.ids)
}

// push queues record id, whose storage is ev (ev.at >= base).
//
//cenju4:hotpath
func (w *wheel) push(id uint32, ev *Event) {
	w.live++
	w.link(id, ev)
}

// link appends id to the tail of the slot that holds ev.at relative to
// base.
//
//cenju4:hotpath
func (w *wheel) link(id uint32, ev *Event) {
	t := ev.at
	var l *slotList
	if x := uint64(t ^ w.base); x < l0Slots {
		s := uint64(t) % l0Slots
		l = &w.l0[s]
		w.l0bits[s/64] |= 1 << (s % 64)
		w.l0sum |= 1 << (s / 64)
	} else {
		lv := uint(bits.Len64(x)-1-l0Bits) / upBits
		s := uint64(t) >> (l0Bits + upBits*lv) % upSlots
		l = &w.up[lv][s]
		w.upbits[lv] |= 1 << s
		w.upsum |= 1 << lv
	}
	ev.next = 0
	if l.head == 0 {
		l.head = id
	} else {
		w.ev(l.tail).next = id
	}
	l.tail = id
}

// next unlinks and returns the earliest live event, or 0 and nil when
// there is none. now is the engine clock, the value base resets to once
// the queue holds no live event.
//
//cenju4:hotpath
func (w *wheel) next(now Time) (uint32, *Event) {
	for w.live > 0 {
		if w.l0sum == 0 {
			w.cascade()
			continue
		}
		wd := uint64(bits.TrailingZeros64(w.l0sum))
		s := wd*64 + uint64(bits.TrailingZeros64(w.l0bits[wd]))
		l := &w.l0[s]
		id := l.head
		ev := w.ev(id)
		if ev.dead {
			w.dead--
		} else {
			w.live--
		}
		if l.head = ev.next; l.head == 0 {
			if w.l0bits[wd] &^= 1 << (s % 64); w.l0bits[wd] == 0 {
				w.l0sum &^= 1 << wd
			}
		}
		if !ev.dead {
			return id, ev
		}
	}
	if w.dead > 0 {
		w.clear()
	}
	w.base = now
	return 0, nil
}

// cascade empties the lowest non-empty upper slot into the levels below
// it, moving base to the slot's start. Requires an empty level 0 and at
// least one queued entry.
//
//cenju4:hotpath
func (w *wheel) cascade() {
	lv := uint(bits.TrailingZeros64(w.upsum))
	s := uint64(bits.TrailingZeros64(w.upbits[lv]))
	shift := l0Bits + upBits*lv
	w.base = Time(uint64(w.base)>>(shift+upBits)<<(shift+upBits) | s<<shift)
	id := w.up[lv][s].head
	w.up[lv][s] = slotList{}
	if w.upbits[lv] &^= 1 << s; w.upbits[lv] == 0 {
		w.upsum &^= 1 << lv
	}
	for id != 0 {
		ev := w.ev(id)
		nx := ev.next
		if ev.dead {
			w.dead--
		} else {
			w.link(id, ev)
		}
		id = nx
	}
}

// clear drops every list, leaving the canceled entries they held.
func (w *wheel) clear() {
	for wd := range w.l0bits {
		for b := w.l0bits[wd]; b != 0; b &= b - 1 {
			w.l0[wd*64+bits.TrailingZeros64(b)] = slotList{}
		}
		w.l0bits[wd] = 0
	}
	for lv := range w.upbits {
		for b := w.upbits[lv]; b != 0; b &= b - 1 {
			w.up[lv][bits.TrailingZeros64(b)] = slotList{}
		}
		w.upbits[lv] = 0
	}
	w.l0sum, w.upsum, w.dead = 0, 0, 0
}
