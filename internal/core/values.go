package core

import (
	"cenju4/internal/sim"
	"cenju4/internal/topology"
)

// ValueObserver receives the semantically significant data events a
// ValueTracker derives from the protocol's message flow. The fuzzing
// harness's consistency oracle implements it; the tracker itself is
// purely mechanical and never judges correctness.
type ValueObserver interface {
	// StoreOrdered reports that a store of tag to the block became
	// globally ordered: for invalidation-protocol blocks at the master's
	// grant (every stale copy is gone by then), for update-protocol
	// blocks (update=true) at the home's write-through serialization
	// point.
	StoreOrdered(node topology.NodeID, addr topology.Addr, tag uint64, update bool, at sim.Time)
	// LoadObserved reports the tagged value a processor load returned.
	LoadObserved(node topology.NodeID, addr topology.Addr, tag uint64, at sim.Time)
}

// ValueTracker mirrors the movement of one tagged 64-bit value per
// coherence block as the protocol executes: per-node secondary-cache
// line values, per-home memory values, and per-node third-level-cache
// values for update-protocol blocks. Blocks start holding tag 0; every
// ordered store writes a fresh monotonic tag. Because the tracker moves
// values exactly where the protocol moves data — fills, forwards,
// writebacks, update broadcasts — a protocol bug (a stale copy
// surviving an invalidation, a dirty block served from memory) surfaces
// as a load observing a tag the consistency oracle does not expect.
//
// One tracker is shared by every controller of a machine and is only
// safe for the single-threaded event engine that drives them.
type ValueTracker struct {
	nextTag        uint64
	obs            ValueObserver
	cache, mem, l3 valueTable
}

// NewValueTracker builds a tracker reporting to obs (which must be
// non-nil).
func NewValueTracker(obs ValueObserver) *ValueTracker {
	return &ValueTracker{obs: obs}
}

// valueTable maps (node, block) to a tagged value, 0 when unset: linear
// probing over a power-of-two array at most half full, so an access is
// a multiply and almost always one probe, not a Go map's hash and scan.
type valueTable struct {
	slots []struct{ key, val uint64 }
	used  int
}

// slot returns the slot of key, or the empty one (key 0) where it goes.
func (t *valueTable) slot(key uint64) *struct{ key, val uint64 } {
	mask := uint64(len(t.slots) - 1)
	for i := key * 0x9e3779b97f4a7c15 >> 40 & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.key == key || s.key == 0 {
			return s
		}
	}
}

// valueKey packs the node above the 40-bit block address and sets the
// low bit, which a block address leaves clear, so no key is 0.
func valueKey(n topology.NodeID, a topology.Addr) uint64 {
	return uint64(n)<<48 | uint64(a.Block()) | 1
}

func (t *valueTable) get(n topology.NodeID, a topology.Addr) uint64 {
	if t.used == 0 {
		return 0
	}
	return t.slot(valueKey(n, a)).val
}

func (t *valueTable) set(n topology.NodeID, a topology.Addr, v uint64) {
	if 2*(t.used+1) > len(t.slots) {
		old := t.slots
		//cenju4:alloc-ok doubles as the fuzz oracle's block universe grows
		t.slots = make([]struct{ key, val uint64 }, max(64, 2*len(old)))
		for _, s := range old {
			*t.slot(s.key) = s // an empty old slot lands on an empty one
		}
	}
	s := t.slot(valueKey(n, a))
	if s.key == 0 {
		t.used++
	}
	s.key, s.val = valueKey(n, a), v
}

// CacheValue returns the value node's secondary cache holds for the
// block (meaningful only while the line is valid).
func (t *ValueTracker) CacheValue(n topology.NodeID, a topology.Addr) uint64 {
	return t.cache.get(n, a)
}

// MemValue returns the home-memory value of the block.
func (t *ValueTracker) MemValue(home topology.NodeID, a topology.Addr) uint64 {
	return t.mem.get(home, a)
}

// L3Value returns node's third-level-cache value of an update-protocol
// block.
func (t *ValueTracker) L3Value(n topology.NodeID, a topology.Addr) uint64 { return t.l3.get(n, a) }

// newTag returns a fresh, globally unique, monotonically increasing
// store tag (tag 0 is the initial value of every block).
func (t *ValueTracker) newTag() uint64 {
	t.nextTag++
	return t.nextTag
}

// storeOrdered installs a fresh tag as node's cache value for the block
// — the serialization point of an invalidation-protocol store (cache
// hit on M/E, or transaction grant).
func (t *ValueTracker) storeOrdered(n topology.NodeID, a topology.Addr, at sim.Time) {
	tag := t.newTag()
	t.cache.set(n, a, tag)
	t.obs.StoreOrdered(n, a, tag, false, at)
}

// loadObserved reports node's current cache value as a load result.
func (t *ValueTracker) loadObserved(n topology.NodeID, a topology.Addr, at sim.Time) {
	t.obs.LoadObserved(n, a, t.cache.get(n, a), at)
}

// fill records a cache fill with a value that arrived in a message.
func (t *ValueTracker) fill(n topology.NodeID, a topology.Addr, v uint64) { t.cache.set(n, a, v) }

// memWrite records a home-memory write (writeback, slave data landing,
// update write-through).
func (t *ValueTracker) memWrite(home topology.NodeID, a topology.Addr, v uint64) {
	t.mem.set(home, a, v)
}

// l3Write records an update broadcast landing in node's third-level
// cache.
func (t *ValueTracker) l3Write(n topology.NodeID, a topology.Addr, v uint64) { t.l3.set(n, a, v) }

// updateOrdered reports the home-side serialization of an update-
// protocol write-through (the tag was assigned at issue and rode in the
// UpdateWrite message).
func (t *ValueTracker) updateOrdered(master topology.NodeID, a topology.Addr, tag uint64, at sim.Time) {
	t.obs.StoreOrdered(master, a, tag, true, at)
}

// Faults deliberately break one correctness-critical protocol action
// each, so the fuzzing harness can prove its oracle catches real bugs
// (internal/fuzz self-tests). Production configurations leave the
// pointer nil.
type Faults struct {
	// SkipInvalidate makes slaves acknowledge invalidations without
	// invalidating their copy — the classic stale-sharer bug the data
	// oracle catches on the next load hit.
	SkipInvalidate bool
	// SkipReservation makes the home queue requests without ever setting
	// the directory reservation bit, so the memory FIFO is never drained
	// — queued masters starve and the machine deadlocks.
	SkipReservation bool
	// StaleDirtyRead makes the home serve a read-shared request for a
	// dirty block straight from memory instead of forwarding to the
	// owner — the requester observes stale data.
	StaleDirtyRead bool
}
