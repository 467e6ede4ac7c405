package directory

import (
	"fmt"

	"cenju4/internal/topology"
)

// State is the coherence state of a memory block, stored in the
// directory entry. Clean and Dirty are stable; the Pending states mark
// blocks with an outstanding transaction (requests targeting them are
// queued, never NACKed).
type State uint8

const (
	// Clean: one or more nodes may cache the data; memory is valid.
	Clean State = iota
	// Dirty: exactly one node caches the data; memory may be stale.
	Dirty
	// PendingShared: a read-shared request has been forwarded to the
	// dirty slave and its reply is awaited.
	PendingShared
	// PendingExclusive: a read-exclusive transaction is in flight
	// (invalidations multicast, or forwarded to the dirty slave).
	PendingExclusive
	// PendingInvalidate: an ownership transaction's invalidations are in
	// flight.
	PendingInvalidate
	// PendingUpdate: an update-protocol write's data multicast is in
	// flight (the Section 4.2.3 extension; not part of the original
	// Cenju-4 protocol).
	PendingUpdate
)

// Pending reports whether s is one of the three pending states.
func (s State) Pending() bool { return s >= PendingShared }

func (s State) String() string {
	switch s {
	case Clean:
		return "C"
	case Dirty:
		return "D"
	case PendingShared:
		return "Ps"
	case PendingExclusive:
		return "Pe"
	case PendingInvalidate:
		return "Pi"
	case PendingUpdate:
		return "Pu"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Entry is the 64-bit Cenju-4 directory entry:
//
//	bit  63    : reservation bit (a queued request waits on this block)
//	bits 62-60 : block state
//	bit  59    : node-map format (0 = pointer, 1 = bit-pattern)
//	bits 58-0  : node map
//
// Bits 59-0 are the entry's Dest: every node-map query decodes them
// there. The entry never switches back from bit-pattern to pointer
// format except through MapClear/MapSetOnly, mirroring the hardware.
type Entry uint64

const (
	reservedBit = 63
	stateShift  = 60
	stateMask   = 0x7
	formatBit   = 59

	ptrCountShift = 40
	ptrCountMask  = 0x7
	ptrWidth      = 10
	ptrMask       = 1<<ptrWidth - 1

	// MaxPointers is the number of node pointers held before the entry
	// switches to the bit-pattern structure.
	MaxPointers = 4

	destMask = 1<<(formatBit+1) - 1
)

// Reserved reports the reservation bit.
func (e Entry) Reserved() bool { return e>>reservedBit&1 == 1 }

// SetReserved sets or clears the reservation bit.
func (e *Entry) SetReserved(v bool) {
	if v {
		*e |= 1 << reservedBit
	} else {
		*e &^= 1 << reservedBit
	}
}

// State returns the block state.
func (e Entry) State() State { return State(e >> stateShift & stateMask) }

// SetState stores the block state.
func (e *Entry) SetState(s State) {
	*e = *e&^(stateMask<<stateShift) | Entry(s)<<stateShift
}

// Dest returns the node map as a multicast destination specification:
// the invalidation carries the directory's own pointer or bit-pattern
// structure, so the network delivers copies only to represented nodes.
//
//cenju4:hotpath
func (e Entry) Dest() Dest { return Dest(e & destMask) }

func (e *Entry) setDest(d Dest) { *e = *e&^destMask | Entry(d) }

// MapAdd records node n as a sharer (see Dest.Add for the dynamic
// switch to the bit-pattern structure).
func (e *Entry) MapAdd(n topology.NodeID) { e.setDest(e.Dest().Add(n)) }

// MapClear empties the node map and returns it to pointer format.
func (e *Entry) MapClear() { e.setDest(0) }

// MapSetOnly resets the node map to record exactly node n (pointer
// format). Used when the home grants an exclusive copy.
func (e *Entry) MapSetOnly(n topology.NodeID) {
	e.MapClear()
	e.MapAdd(n)
}

func (e Entry) String() string {
	r := ""
	if e.Reserved() {
		r = "R,"
	}
	return fmt.Sprintf("dir[%s%v,%v]", r, e.State(), e.Dest())
}

// Dest is a node map: bits 59-0 of an Entry, the format bit plus either
// a 3-bit pointer count (bits 42-40) over up to four 10-bit node
// pointers (bits 39-0, slots above the count zero) or a BitPattern (bits
// 41-0). It is both the directory's record of sharers and the
// destination field of a message, as in the hardware, so invalidations
// reach exactly the represented set. Queries decode the word in place.
type Dest uint64

// PointerDest builds a pointer-format destination from an explicit node
// list (at most MaxPointers entries, kept in order).
func PointerDest(nodes ...topology.NodeID) Dest {
	if len(nodes) > MaxPointers {
		panic(fmt.Sprintf("directory: %d nodes exceed the pointer structure", len(nodes)))
	}
	d := Dest(len(nodes)) << ptrCountShift
	for i, n := range nodes {
		if n >= topology.MaxNodes {
			panic(fmt.Sprintf("directory: node %d out of range", n))
		}
		d |= Dest(n) << (i * ptrWidth)
	}
	return d
}

// PatternDest returns the bit-pattern destination holding bp.
func PatternDest(bp BitPattern) Dest { return 1<<formatBit | Dest(bp) }

// Single returns a destination spec for exactly one node.
//
//cenju4:hotpath
func Single(n topology.NodeID) Dest { return 1<<ptrCountShift | Dest(n) }

// AllNodes returns a bit-pattern destination covering exactly nodes
// 0..n-1 (n a power of two). The update-protocol extension uses it to
// address every third-level cache with one multicast.
func AllNodes(n int) Dest {
	var bp BitPattern
	for i := 0; i < n; i++ {
		bp.Add(topology.NodeID(i))
	}
	return PatternDest(bp)
}

// IsPattern reports whether d is in bit-pattern format.
func (d Dest) IsPattern() bool { return d>>formatBit&1 == 1 }

// Pattern returns the bit-pattern map (meaningful when IsPattern).
func (d Dest) Pattern() BitPattern { return BitPattern(d & (1<<BitPatternBits - 1)) }

// Node returns the first pointer: the one node of a singlecast
// destination.
func (d Dest) Node() topology.NodeID { return topology.NodeID(d & ptrMask) }

// ptrs returns the pointer count (pointer format only). Pointer-form
// queries shift the pointers out of the word one at a time rather than
// copying them out.
func (d Dest) ptrs() int { return int(d >> ptrCountShift & ptrCountMask) }

// SingleTo reports whether d addresses exactly node n in pointer
// format — the singlecast test the message layer applies per send. It
// compares whole words: every writer leaves the pointer slots above the
// count zero.
func (d Dest) SingleTo(n topology.NodeID) bool { return d == Single(n) }

// Add returns d with node n recorded. In pointer format a fifth
// distinct node triggers the dynamic switch to the bit-pattern
// structure, re-encoding the four pointers plus n.
func (d Dest) Add(n topology.NodeID) Dest {
	if n >= topology.MaxNodes {
		panic(fmt.Sprintf("directory: node %d out of range", n))
	}
	if d.IsPattern() {
		return d | Dest(EncodeNode(n))
	}
	cnt := d.ptrs()
	for w, c := d, cnt; c > 0; w, c = w>>ptrWidth, c-1 {
		if topology.NodeID(w&ptrMask) == n {
			return d // already recorded
		}
	}
	if cnt < MaxPointers {
		return d + (1<<ptrCountShift | Dest(n)<<(cnt*ptrWidth))
	}
	// Dynamic switch: the pointer structure is full.
	bp := EncodeNode(n)
	for w, c := d, cnt; c > 0; w, c = w>>ptrWidth, c-1 {
		bp.Add(topology.NodeID(w & ptrMask))
	}
	return PatternDest(bp)
}

// Members appends the represented node set to dst, restricted to nodes
// below limit (the machine size). With a dst of sufficient capacity the
// decode is allocation-free.
//
//cenju4:hotpath
func (d Dest) Members(dst []topology.NodeID, limit int) []topology.NodeID {
	if d.IsPattern() {
		return d.Pattern().Members(dst, limit)
	}
	for w, c := d, d.ptrs(); c > 0; w, c = w>>ptrWidth, c-1 {
		if p := topology.NodeID(w & ptrMask); int(p) < limit {
			dst = append(dst, p)
		}
	}
	return dst
}

// Count returns the size of the represented set (limit-confined counts
// require Members; Count is the raw represented size).
func (d Dest) Count() int {
	if d.IsPattern() {
		return d.Pattern().Count()
	}
	return d.ptrs()
}

// Contains reports whether node n is in the represented set (possibly a
// superset of the true sharers in bit-pattern format).
func (d Dest) Contains(n topology.NodeID) bool {
	if d.IsPattern() {
		return d.Pattern().Contains(n)
	}
	for w, c := d, d.ptrs(); c > 0; w, c = w>>ptrWidth, c-1 {
		if topology.NodeID(w&ptrMask) == n {
			return true
		}
	}
	return false
}

// IsOnly reports whether the represented set is empty or exactly {n} —
// the "no node or only the master is registered" test of the protocol.
func (d Dest) IsOnly(n topology.NodeID) bool {
	switch d.Count() {
	case 0:
		return true
	case 1:
		return d.Contains(n)
	default:
		return false
	}
}

func (d Dest) String() string {
	if d.IsPattern() {
		return d.Pattern().String()
	}
	return fmt.Sprintf("ptr%v", d.Members(nil, topology.MaxNodes))
}
