package fuzz

import (
	"fmt"
	"slices"

	"cenju4/internal/cache"
	"cenju4/internal/core"
	"cenju4/internal/machine"
	"cenju4/internal/sim"
	"cenju4/internal/topology"
)

// Violation is one consistency-oracle failure.
type Violation struct {
	At   sim.Time
	Node topology.NodeID
	Addr topology.Addr
	Got  uint64
	Want uint64
	Kind string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at %v: %v %v got tag %d want %d",
		v.Kind, v.At, v.Node, v.Addr, v.Got, v.Want)
}

// maxViolations bounds how many violations one case records; further
// ones only bump the counter (one bad store typically cascades).
const maxViolations = 16

// oracle shadows the machine's data: the value-tracking hooks report
// every serialized store and every observed load, and the oracle checks
// each observation against the per-block coherence order.
//
// Blocks under the invalidation protocol are checked strictly: a load
// must return the globally latest serialized tag, which is sound
// because the network delivers in order over unique paths and a store
// is serialized only once every stale copy is gone. Blocks under the
// update protocol propagate new values non-atomically, so they get a
// relaxed check instead: every observed value must exist in the block's
// version history and each node must see versions in non-decreasing
// order.
type oracle struct {
	update func(topology.Addr) bool // nil: everything strict
	hist   map[topology.Addr][]uint64
	index  map[topology.Addr]map[uint64]int // update blocks: tag -> position (0 = initial)
	seen   map[topology.Addr]map[topology.NodeID]int
	viol   []Violation
	total  int
}

func newOracle(update func(topology.Addr) bool) *oracle {
	return &oracle{
		update: update,
		hist:   make(map[topology.Addr][]uint64),
		index:  make(map[topology.Addr]map[uint64]int),
		seen:   make(map[topology.Addr]map[topology.NodeID]int),
	}
}

func (o *oracle) isUpdate(b topology.Addr) bool {
	return o.update != nil && o.update(b)
}

func (o *oracle) record(v Violation) {
	o.total++
	if len(o.viol) < maxViolations {
		o.viol = append(o.viol, v)
	}
}

// Violations returns the recorded failures in simulation order.
func (o *oracle) Violations() []Violation { return o.viol }

// last returns the most recent serialized tag (0 before any store).
func (o *oracle) last(b topology.Addr) uint64 {
	h := o.hist[b]
	if len(h) == 0 {
		return 0
	}
	return h[len(h)-1]
}

// StoreOrdered implements core.ValueObserver: tag became block b's
// newest version at its serialization point.
func (o *oracle) StoreOrdered(node topology.NodeID, addr topology.Addr, tag uint64, update bool, at sim.Time) {
	b := addr.Block()
	isUpdate := o.isUpdate(b)
	if isUpdate != update {
		// A write-through on an invalidation block, or an exclusive
		// grant sneaking a silent upgrade onto an update block — either
		// way the two protocols are mixing on one block.
		o.record(Violation{At: at, Node: node, Addr: b, Got: tag, Want: o.last(b),
			Kind: "protocol-mix"})
	}
	o.hist[b] = append(o.hist[b], tag)
	if !isUpdate {
		return // only an update block's loads read a position
	}
	idx := o.index[b]
	if idx == nil {
		idx = map[uint64]int{0: 0}
		o.index[b] = idx
	}
	idx[tag] = len(o.hist[b])
}

// LoadObserved implements core.ValueObserver: node's load of addr
// returned tag.
func (o *oracle) LoadObserved(node topology.NodeID, addr topology.Addr, tag uint64, at sim.Time) {
	b := addr.Block()
	if !o.isUpdate(b) {
		if want := o.last(b); tag != want {
			kind := "stale-load"
			if tag != 0 && !slices.Contains(o.hist[b], tag) {
				kind = "phantom-value" // never stored to this block
			}
			o.record(Violation{At: at, Node: node, Addr: b, Got: tag, Want: want, Kind: kind})
		}
		return
	}
	// Update block: membership plus per-node monotonicity.
	pos, known := 0, tag == 0
	if !known {
		pos, known = o.index[b][tag]
	}
	if !known {
		o.record(Violation{At: at, Node: node, Addr: b, Got: tag, Want: o.last(b),
			Kind: "phantom-value"})
		return
	}
	nodes := o.seen[b]
	if nodes == nil {
		nodes = make(map[topology.NodeID]int)
		o.seen[b] = nodes
	}
	if prev := nodes[node]; pos < prev {
		o.record(Violation{At: at, Node: node, Addr: b, Got: tag, Want: o.hist[b][prev-1],
			Kind: "non-monotonic-load"})
		return
	}
	nodes[node] = pos
}

// checkFinal sweeps the block universe once all traffic has drained:
// every surviving cached copy, the home memory image (absent a dirty
// owner), and — for update blocks — every third-level cache must have
// converged on the block's final version.
func (o *oracle) checkFinal(m *machine.Machine, vt *core.ValueTracker, blocks []topology.Addr) {
	now := m.Engine().Now()
	for _, b := range blocks {
		want := o.last(b)
		dirty := false
		for n := 0; n < m.Nodes(); n++ {
			node := topology.NodeID(n)
			st := m.Controller(node).Cache().State(b)
			if st == cache.Invalid {
				continue
			}
			if st == cache.Modified {
				dirty = true
			}
			if got := vt.CacheValue(node, b); got != want {
				o.record(Violation{At: now, Node: node, Addr: b, Got: got, Want: want,
					Kind: "quiescent-cache-stale"})
			}
		}
		switch {
		case o.isUpdate(b):
			if got := vt.MemValue(b.Home(), b); got != want {
				o.record(Violation{At: now, Node: b.Home(), Addr: b, Got: got, Want: want,
					Kind: "quiescent-mem-stale"})
			}
			if len(o.hist[b]) > 0 {
				for n := 0; n < m.Nodes(); n++ {
					node := topology.NodeID(n)
					if got := vt.L3Value(node, b); got != want {
						o.record(Violation{At: now, Node: node, Addr: b, Got: got, Want: want,
							Kind: "quiescent-l3-stale"})
					}
				}
			}
		case !dirty:
			if got := vt.MemValue(b.Home(), b); got != want {
				o.record(Violation{At: now, Node: b.Home(), Addr: b, Got: got, Want: want,
					Kind: "quiescent-mem-stale"})
			}
		}
	}
}
