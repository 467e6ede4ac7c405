package machine

import (
	"fmt"
	"slices"

	"cenju4/internal/cache"
	"cenju4/internal/directory"
	"cenju4/internal/topology"
)

// Validate checks global coherence invariants across every touched
// shared block. It is meant to run when the event engine is idle (no
// in-flight transactions): pending directory states then indicate a
// protocol leak and fail validation too.
//
// Invariants:
//
//  1. Single writer: at most one node holds a block Modified or
//     Exclusive, and then no node holds it Shared.
//  2. Directory-dirty agreement: a Dirty block's decoded node map names
//     exactly one node, and no *other* node holds any copy. (The owner
//     itself may have silently evicted — the map is then stale but
//     safe.)
//  3. Conservative map: every node holding a copy of a Clean block
//     appears in the decoded (possibly superset) node map. Exception:
//     blocks under the update protocol do not track sharers.
//  4. Quiescence: no pending states, no reservation bits, and empty
//     request queues once the machine is idle.
//
// It returns the first violation found, or nil: homes in ascending
// order, each home's blocks in ascending order, and within a block the
// cached copies in ascending node order.
func (m *Machine) Validate() error {
	if m.eng.Pending() != 0 {
		return fmt.Errorf("machine: validate called with %d events outstanding", m.eng.Pending())
	}
	// One pass over every cache instead of a probe of every cache per
	// directory block: the cached copies, sorted by (block, node), are
	// merge-joined with the directory walk, whose (home, block) order is
	// ascending address order too.
	copies := m.sharedCopies()
	for home := 0; home < m.cfg.Nodes; home++ {
		ctrl := m.ctrls[home]
		if n := ctrl.PendingBlocks(); n != 0 {
			return fmt.Errorf("node %d: %d transactions still pending at idle", home, n)
		}
		if n := ctrl.QueueLen(); n != 0 {
			return fmt.Errorf("node %d: request queue holds %d entries at idle", home, n)
		}
		var err error
		ctrl.Memory().ForEach(func(idx uint64, e *directory.Entry) {
			if err != nil {
				return
			}
			addr := topology.SharedAddr(topology.NodeID(home), idx*topology.BlockSize)
			key := copyKey(addr, 0, cache.Invalid)
			for len(copies) > 0 && copies[0] < key {
				copies = copies[1:] // cached block without a directory entry
			}
			j := 0
			for j < len(copies) && copies[j]>>copyBlockShift == key>>copyBlockShift {
				j++
			}
			err = m.validateBlock(addr, e, copies[:j])
			copies = copies[j:]
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// A cached copy of a shared block packs into one sortable word: the
// block number above the node number above the 2-bit line state, so
// ascending words are ascending (block, node).
const copyBlockShift = topology.NodeBits + 2

func copyKey(block topology.Addr, node topology.NodeID, st cache.LineState) uint64 {
	return uint64(block)>>topology.BlockShift<<copyBlockShift | uint64(node)<<2 | uint64(st)
}

// sharedCopies returns every valid cached copy of a shared block on the
// machine, sorted by (block, node).
func (m *Machine) sharedCopies() []uint64 {
	var copies []uint64
	for n, ctrl := range m.ctrls {
		ctrl.Cache().ForEachLine(func(block topology.Addr, st cache.LineState) {
			if block.Shared() {
				copies = append(copies, copyKey(block, topology.NodeID(n), st))
			}
		})
	}
	slices.Sort(copies)
	return copies
}

// validateBlock checks one directory entry against the cached copies of
// its block, given as sorted copy words.
func (m *Machine) validateBlock(addr topology.Addr, e *directory.Entry, copies []uint64) error {
	if e.State().Pending() {
		return fmt.Errorf("block %v: state %v at idle", addr, e.State())
	}
	if e.Reserved() {
		return fmt.Errorf("block %v: reservation bit set at idle", addr)
	}
	updateMode := m.cfg.UpdateMode != nil && m.cfg.UpdateMode(addr)

	owners, sharers := 0, 0
	var owner topology.NodeID
	for _, c := range copies {
		n := topology.NodeID(c >> 2 & (1<<topology.NodeBits - 1))
		switch cache.LineState(c & 3) {
		case cache.Modified, cache.Exclusive:
			owners++
			owner = n
		case cache.Shared:
			sharers++
			if !updateMode && !e.MapContains(n) {
				return fmt.Errorf("block %v: node %d holds S but is absent from the node map %v", addr, n, *e)
			}
		case cache.Invalid:
			// Not collected: only valid lines are copies.
		}
	}
	if owners > 1 {
		return fmt.Errorf("block %v: %d exclusive owners", addr, owners)
	}
	if owners == 1 && sharers > 0 {
		return fmt.Errorf("block %v: owner %v coexists with %d shared copies", addr, owner, sharers)
	}
	if owners == 1 {
		if updateMode {
			return fmt.Errorf("block %v: exclusive owner %v under the update protocol", addr, owner)
		}
		if e.State() != directory.Dirty {
			return fmt.Errorf("block %v: owner %v but directory state %v", addr, owner, e.State())
		}
		if !e.MapContains(owner) {
			return fmt.Errorf("block %v: owner %v absent from node map %v", addr, owner, *e)
		}
	}
	if e.State() == directory.Dirty {
		if n := len(e.MapMembers(nil, m.cfg.Nodes)); n != 1 {
			return fmt.Errorf("block %v: dirty with %d registered nodes", addr, n)
		}
	}
	return nil
}
