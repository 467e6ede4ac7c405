package fuzz

import (
	"testing"

	"cenju4/internal/machine"
	"cenju4/internal/topology"
)

// oracleBlocks: b is checked strictly, u under the update protocol's
// relaxed rule (the predicate below marks only u).
var (
	oracleStrict = topology.SharedAddr(1, 0)
	oracleUpdate = topology.SharedAddr(2, 128)
)

func newTestOracle() *oracle {
	return newOracle(func(a topology.Addr) bool { return a == oracleUpdate })
}

// wantKinds fails t unless o recorded exactly the given violation
// kinds, in order.
func wantKinds(t *testing.T, o *oracle, kinds ...string) {
	t.Helper()
	var got []string
	for _, v := range o.Violations() {
		got = append(got, v.Kind)
	}
	if len(got) != len(kinds) || o.total != len(kinds) {
		t.Fatalf("violations %q (total %d), want %q", got, o.total, kinds)
	}
	for i := range kinds {
		if got[i] != kinds[i] {
			t.Fatalf("violations %q, want %q", got, kinds)
		}
	}
}

// TestOracleStrictLoads: a strict block's load must return the latest
// serialized tag. An older tag (the initial 0 included) is a stale load;
// a tag never stored to the block is a phantom value.
func TestOracleStrictLoads(t *testing.T) {
	o := newTestOracle()
	b := oracleStrict
	o.LoadObserved(3, b, 0, 1) // initial value: fine
	o.StoreOrdered(0, b, 1, false, 2)
	o.StoreOrdered(1, b, 2, false, 3)
	o.LoadObserved(3, b, 2, 4) // latest: fine
	wantKinds(t, o)

	o.LoadObserved(3, b, 1, 5)
	o.LoadObserved(4, b, 0, 6)
	o.LoadObserved(5, b, 99, 7)
	o.LoadObserved(5, b+topology.BlockSize, 7, 8) // no store at all
	wantKinds(t, o, "stale-load", "stale-load", "phantom-value", "phantom-value")
	v := o.Violations()[0]
	if v.Got != 1 || v.Want != 2 || v.Node != 3 || v.Addr != b || v.At != 5 {
		t.Errorf("stale load recorded as %+v", v)
	}
	if v := o.Violations()[3]; v.Got != 7 || v.Want != 0 {
		t.Errorf("phantom on an unwritten block recorded as %+v", v)
	}
}

// TestOracleUpdateLoads: an update block's load may return any stored
// version, but each node's versions must not go backwards, and a tag
// never stored to the block is a phantom value.
func TestOracleUpdateLoads(t *testing.T) {
	o := newTestOracle()
	u := oracleUpdate
	o.StoreOrdered(0, u, 1, true, 1)
	o.StoreOrdered(1, u, 2, true, 2)
	o.LoadObserved(3, u, 1, 3) // older version: allowed
	o.LoadObserved(3, u, 2, 4)
	o.LoadObserved(3, u, 2, 5) // same version again: allowed
	o.LoadObserved(4, u, 0, 6) // another node, initial value: allowed
	wantKinds(t, o)

	o.LoadObserved(3, u, 1, 7)
	o.LoadObserved(3, u, 0, 8)
	o.LoadObserved(3, u, 5, 9)
	wantKinds(t, o, "non-monotonic-load", "non-monotonic-load", "phantom-value")
	if v := o.Violations()[0]; v.Got != 1 || v.Want != 2 {
		t.Errorf("non-monotonic load recorded as %+v", v)
	}
	if v := o.Violations()[2]; v.Got != 5 || v.Want != 2 {
		t.Errorf("phantom value recorded as %+v", v)
	}
	// A rejected load leaves the node's position where it was.
	o.LoadObserved(3, u, 2, 10)
	wantKinds(t, o, "non-monotonic-load", "non-monotonic-load", "phantom-value")
}

// TestOracleProtocolMix: a write-through serialized on a strict block
// and an exclusive grant on an update block are both protocol-mix
// violations. The mixed store still joins the block's history, and the
// block keeps its own protocol's load rule.
func TestOracleProtocolMix(t *testing.T) {
	o := newTestOracle()
	b, u := oracleStrict, oracleUpdate
	o.StoreOrdered(0, b, 1, false, 1)
	o.StoreOrdered(0, b, 2, true, 2)
	o.StoreOrdered(1, u, 3, false, 3)
	wantKinds(t, o, "protocol-mix", "protocol-mix")
	if v := o.Violations()[0]; v.Got != 2 || v.Want != 1 {
		t.Errorf("write-through on a strict block recorded as %+v", v)
	}
	if v := o.Violations()[1]; v.Got != 3 || v.Want != 0 {
		t.Errorf("grant on an update block recorded as %+v", v)
	}

	o.LoadObserved(2, b, 2, 4) // the mixed store is the latest
	o.LoadObserved(2, u, 3, 5) // and a known version
	wantKinds(t, o, "protocol-mix", "protocol-mix")
	o.StoreOrdered(0, b, 4, false, 6)
	o.LoadObserved(2, b, 2, 7) // now stale, not phantom
	o.LoadObserved(2, u, 0, 8) // node 2 saw version 3 already
	wantKinds(t, o, "protocol-mix", "protocol-mix", "stale-load", "non-monotonic-load")
}

// TestOracleQuiescent: once traffic drains, every cached copy, the
// home memory (absent a dirty owner) and, for a written update block,
// every third-level cache must hold the block's final version.
func TestOracleQuiescent(t *testing.T) {
	build := func() (*machine.Machine, *oracle) {
		m := machine.New(machine.Config{Nodes: 8, Multicast: true})
		o := newTestOracle()
		return m, o
	}
	b, u := oracleStrict, oracleUpdate

	t.Run("clean", func(t *testing.T) {
		m, o := build()
		vt := m.TrackValues(o)
		m.Access(0, b, true)
		m.Access(3, b, false)
		o.checkFinal(m, vt, []topology.Addr{b})
		wantKinds(t, o)
	})
	t.Run("cache", func(t *testing.T) {
		// Node 0 holds the block modified with its store's tag; a later
		// store the caches never saw leaves that copy stale. The dirty
		// owner exempts home memory.
		m, o := build()
		vt := m.TrackValues(o)
		m.Access(0, b, true)
		o.StoreOrdered(5, b, 99, false, m.Engine().Now())
		o.checkFinal(m, vt, []topology.Addr{b})
		wantKinds(t, o, "quiescent-cache-stale")
		if v := o.Violations()[0]; v.Node != 0 || v.Want != 99 {
			t.Errorf("stale cached copy recorded as %+v", v)
		}
	})
	t.Run("mem", func(t *testing.T) {
		// No node caches the block, so home memory must hold the final
		// version.
		m, o := build()
		vt := m.TrackValues(o)
		o.StoreOrdered(5, b, 99, false, 0)
		o.checkFinal(m, vt, []topology.Addr{b})
		wantKinds(t, o, "quiescent-mem-stale")
		if v := o.Violations()[0]; v.Node != b.Home() || v.Got != 0 || v.Want != 99 {
			t.Errorf("stale home memory recorded as %+v", v)
		}
	})
	t.Run("l3", func(t *testing.T) {
		// A written update block: home memory and all eight third-level
		// caches missed the update.
		m, o := build()
		vt := m.TrackValues(o)
		o.StoreOrdered(5, u, 99, true, 0)
		o.checkFinal(m, vt, []topology.Addr{u})
		kinds := []string{"quiescent-mem-stale"}
		for n := 0; n < 8; n++ {
			kinds = append(kinds, "quiescent-l3-stale")
		}
		wantKinds(t, o, kinds...)
	})
	t.Run("unwritten-update", func(t *testing.T) {
		// An update block nobody wrote is not checked level by level.
		m, o := build()
		vt := m.TrackValues(o)
		o.checkFinal(m, vt, []topology.Addr{u})
		wantKinds(t, o)
	})
}
