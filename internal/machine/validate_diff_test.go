package machine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cenju4/internal/cache"
	"cenju4/internal/directory"
	"cenju4/internal/topology"
)

// validateProbe is the reference validator: the same checks as
// Validate, probing every node's cache for every directory block.
func (m *Machine) validateProbe() error {
	if m.eng.Pending() != 0 {
		return fmt.Errorf("machine: validate called with %d events outstanding", m.eng.Pending())
	}
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
			err = m.validateBlockProbe(addr, e)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) validateBlockProbe(addr topology.Addr, e *directory.Entry) error {
	if e.State().Pending() {
		return fmt.Errorf("block %v: state %v at idle", addr, e.State())
	}
	if e.Reserved() {
		return fmt.Errorf("block %v: reservation bit set at idle", addr)
	}
	updateMode := m.cfg.UpdateMode != nil && m.cfg.UpdateMode(addr)

	owners, sharers := 0, 0
	var owner topology.NodeID
	for n := 0; n < m.cfg.Nodes; n++ {
		switch m.ctrls[n].Cache().State(addr) {
		case cache.Modified, cache.Exclusive:
			owners++
			owner = topology.NodeID(n)
		case cache.Shared:
			sharers++
			if !updateMode && !e.MapContains(topology.NodeID(n)) {
				return fmt.Errorf("block %v: node %d holds S but is absent from the node map %v", addr, n, *e)
			}
		case cache.Invalid:
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

// sameVerdict fails the test unless Validate and the probe reference
// agree on m, error text included, and returns Validate's verdict.
func sameVerdict(t *testing.T, m *Machine, what string) error {
	t.Helper()
	got, want := m.Validate(), m.validateProbe()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: Validate = %v, probe reference = %v", what, got, want)
	}
	return got
}

// updateBlocks marks every fourth block of each home, starting at block
// 1, as an update-protocol block.
func updateBlocks(a topology.Addr) bool { return a.BlockIndex()%4 == 1 }

// Each named violation, seeded alone behind a clean block and a cached
// block with no directory entry, on 8 and 64 nodes: both validators
// report the same first violation with the same text.
func TestValidateMatchesProbeOnSeededViolations(t *testing.T) {
	type seed func(m *Machine, home topology.NodeID, a topology.Addr)
	entry := func(m *Machine, a topology.Addr) *directory.Entry {
		return m.ctrls[a.Home()].Memory().Entry(a)
	}
	put := func(m *Machine, n int, a topology.Addr, st cache.LineState) {
		m.ctrls[n].Cache().Insert(a, st)
	}
	last := func(m *Machine) int { return m.cfg.Nodes - 1 }
	cases := []struct {
		name string
		want string // substring of the expected error; "" means valid
		seed seed
	}{
		{"two owners", "2 exclusive owners", func(m *Machine, _ topology.NodeID, a topology.Addr) {
			e := entry(m, a)
			e.SetState(directory.Dirty)
			e.MapSetOnly(1)
			put(m, 1, a, cache.Modified)
			put(m, last(m), a, cache.Exclusive)
		}},
		{"owner plus sharer", "coexists with 1 shared", func(m *Machine, _ topology.NodeID, a topology.Addr) {
			e := entry(m, a)
			e.MapAdd(2)
			e.MapAdd(5)
			put(m, 2, a, cache.Exclusive)
			put(m, 5, a, cache.Shared)
		}},
		{"sharer absent from pointer map", "node 3 holds S but is absent", func(m *Machine, _ topology.NodeID, a topology.Addr) {
			e := entry(m, a)
			e.MapAdd(1)
			put(m, 1, a, cache.Shared)
			put(m, 3, a, cache.Shared)
			put(m, 6, a, cache.Shared) // also absent: the lower node is reported
		}},
		{"sharer absent from bit-pattern map", "holds S but is absent", func(m *Machine, _ topology.NodeID, a topology.Addr) {
			e := entry(m, a)
			for _, n := range []topology.NodeID{0, 1, 2, 3, 4} {
				e.MapAdd(n)
				put(m, int(n), a, cache.Shared)
			}
			put(m, last(m), a, cache.Shared) // outside the cross product on both sizes
		}},
		{"dirty with two registered nodes", "dirty with 2 registered nodes", func(m *Machine, _ topology.NodeID, a topology.Addr) {
			e := entry(m, a)
			e.MapAdd(2)
			e.MapAdd(4)
			e.SetState(directory.Dirty)
		}},
		{"pending", "at idle", func(m *Machine, _ topology.NodeID, a topology.Addr) {
			entry(m, a).SetState(directory.PendingExclusive)
		}},
		{"reserved", "reservation bit set", func(m *Machine, _ topology.NodeID, a topology.Addr) {
			entry(m, a).SetReserved(true)
		}},
		{"update-mode owner", "exclusive owner n4 under the update protocol", func(m *Machine, home topology.NodeID, _ topology.Addr) {
			u := topology.SharedAddr(home, 1*topology.BlockSize)
			entry(m, u)
			put(m, 4, u, cache.Exclusive)
		}},
		{"update-mode unregistered sharers are fine", "", func(m *Machine, home topology.NodeID, _ topology.Addr) {
			u := topology.SharedAddr(home, 1*topology.BlockSize)
			entry(m, u)
			put(m, 3, u, cache.Shared)
			put(m, 6, u, cache.Shared)
		}},
	}
	for _, nodes := range []int{8, 64} {
		for _, tc := range cases {
			m := New(Config{Nodes: nodes, Multicast: true, UpdateMode: updateBlocks})
			home := topology.NodeID(nodes / 2)
			// A valid shared block before the violation, and a cached
			// block whose home never touched its directory entry.
			ok := topology.SharedAddr(home, 0)
			m.ctrls[home].Memory().Entry(ok).MapAdd(7)
			m.ctrls[7].Cache().Insert(ok, cache.Shared)
			m.ctrls[2].Cache().Insert(topology.SharedAddr(home, 64*topology.BlockSize), cache.Modified)
			tc.seed(m, home, topology.SharedAddr(home, 2*topology.BlockSize))
			err := sameVerdict(t, m, fmt.Sprintf("%d nodes, %s", nodes, tc.name))
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%d nodes, %s: unexpected violation %v", nodes, tc.name, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%d nodes, %s: got %v, want a %q violation", nodes, tc.name, err, tc.want)
			}
		}
	}
}

// Random blocks over many homes, most of them coherent (clean sharers
// or one dirty owner) and some corrupted by a stray line, state or bit:
// the first violation (or none) and its text agree with the reference.
func TestValidateMatchesProbeOnRandomStates(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	states := []directory.State{directory.Clean, directory.Dirty, directory.PendingShared, directory.PendingInvalidate}
	lines := []cache.LineState{cache.Shared, cache.Exclusive, cache.Modified}
	failed := 0
	for trial := 0; trial < 200; trial++ {
		nodes := []int{8, 64}[trial%2]
		m := New(Config{Nodes: nodes, Multicast: true, UpdateMode: updateBlocks})
		for b := 0; b < 1+rng.Intn(12); b++ {
			a := topology.SharedAddr(topology.NodeID(rng.Intn(nodes)), uint64(rng.Intn(16))*topology.BlockSize)
			e := m.ctrls[a.Home()].Memory().Entry(a)
			if e.MapEmpty() && rng.Intn(4) == 0 {
				owner := rng.Intn(nodes)
				e.SetState(directory.Dirty)
				e.MapSetOnly(topology.NodeID(owner))
				m.ctrls[owner].Cache().Insert(a, cache.Modified)
			} else if e.State() == directory.Clean {
				for k := rng.Intn(7); k > 0; k-- {
					n := rng.Intn(nodes)
					e.MapAdd(topology.NodeID(n))
					m.ctrls[n].Cache().Insert(a, cache.Shared)
				}
			}
			switch rng.Intn(24) {
			case 0:
				m.ctrls[rng.Intn(nodes)].Cache().Insert(a, lines[rng.Intn(len(lines))])
			case 1:
				e.SetState(states[rng.Intn(len(states))])
			case 2:
				e.SetReserved(true)
			case 3:
				e.MapAdd(topology.NodeID(rng.Intn(nodes)))
			}
		}
		if sameVerdict(t, m, fmt.Sprintf("trial %d (%d nodes)", trial, nodes)) != nil {
			failed++
		}
	}
	// The generator must exercise both verdicts.
	if failed < 40 || failed > 160 {
		t.Fatalf("%d of 200 random states invalid: the mix no longer tests both verdicts", failed)
	}
}
