package directory

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cenju4/internal/topology"
)

func TestEntryZeroValue(t *testing.T) {
	var e Entry
	if e.Reserved() || e.State() != Clean || e.Dest().IsPattern() || e.Dest().Count() != 0 {
		t.Fatalf("zero entry = %v, want clean/unreserved/empty pointer map", e)
	}
}

func TestEntryStateRoundTrip(t *testing.T) {
	var e Entry
	for _, s := range []State{Clean, Dirty, PendingShared, PendingExclusive, PendingInvalidate} {
		e.SetState(s)
		if e.State() != s {
			t.Errorf("SetState(%v) read back %v", s, e.State())
		}
	}
	// State changes must not clobber the map or reservation bit.
	e.MapAdd(7)
	e.SetReserved(true)
	e.SetState(Dirty)
	if !e.Dest().Contains(7) || !e.Reserved() {
		t.Error("SetState clobbered map or reservation")
	}
}

func TestEntryReservationBit(t *testing.T) {
	var e Entry
	e.SetReserved(true)
	if !e.Reserved() {
		t.Fatal("reservation bit not set")
	}
	e.SetReserved(false)
	if e.Reserved() {
		t.Fatal("reservation bit not cleared")
	}
}

func TestEntryPointerPhase(t *testing.T) {
	var e Entry
	nodes := []topology.NodeID{10, 20, 30, 40}
	for i, n := range nodes {
		e.MapAdd(n)
		if e.Dest().IsPattern() {
			t.Fatalf("switched to bit-pattern at %d sharers", i+1)
		}
		if e.Dest().Count() != i+1 {
			t.Fatalf("MapCount() = %d after %d adds", e.Dest().Count(), i+1)
		}
	}
	for _, n := range nodes {
		if !e.Dest().Contains(n) {
			t.Errorf("pointer map lost node %d", n)
		}
	}
	if e.Dest().Contains(15) {
		t.Error("pointer map contains node never added")
	}
}

func TestEntryDuplicateAddIsNoop(t *testing.T) {
	var e Entry
	e.MapAdd(5)
	e.MapAdd(5)
	e.MapAdd(5)
	if e.Dest().Count() != 1 {
		t.Fatalf("MapCount() = %d after duplicate adds, want 1", e.Dest().Count())
	}
	if e.Dest().IsPattern() {
		t.Fatal("duplicate adds triggered format switch")
	}
}

func TestEntryDynamicSwitchAtFifthSharer(t *testing.T) {
	var e Entry
	nodes := []topology.NodeID{0, 4, 5, 32}
	for _, n := range nodes {
		e.MapAdd(n)
	}
	if e.Dest().IsPattern() {
		t.Fatal("switched early")
	}
	e.MapAdd(164) // fifth sharer: dynamic switch
	if !e.Dest().IsPattern() {
		t.Fatal("no switch at fifth sharer")
	}
	// Figure 3: now 12 nodes represented.
	if e.Dest().Count() != 12 {
		t.Fatalf("MapCount() after switch = %d, want 12", e.Dest().Count())
	}
	for _, n := range append(nodes, 164) {
		if !e.Dest().Contains(n) {
			t.Errorf("lost sharer %d across switch", n)
		}
	}
}

func TestEntryMapSetOnly(t *testing.T) {
	var e Entry
	for i := 0; i < 10; i++ {
		e.MapAdd(topology.NodeID(i * 13))
	}
	e.MapSetOnly(42)
	if e.Dest().IsPattern() {
		t.Fatal("MapSetOnly left bit-pattern format")
	}
	if e.Dest().Count() != 1 || !e.Dest().Contains(42) {
		t.Fatalf("MapSetOnly: count=%d contains42=%v", e.Dest().Count(), e.Dest().Contains(42))
	}
}

func TestEntryMapClear(t *testing.T) {
	var e Entry
	for i := 0; i < 6; i++ {
		e.MapAdd(topology.NodeID(i * 100))
	}
	e.SetState(Dirty)
	e.SetReserved(true)
	e.MapClear()
	if e.Dest().Count() != 0 || e.Dest().IsPattern() {
		t.Fatal("MapClear did not empty / reset format")
	}
	if e.State() != Dirty || !e.Reserved() {
		t.Fatal("MapClear clobbered state or reservation")
	}
}

func TestEntryMapIsOnly(t *testing.T) {
	var e Entry
	if !e.Dest().IsOnly(3) {
		t.Error("empty map: IsOnly should be true")
	}
	e.MapAdd(3)
	if !e.Dest().IsOnly(3) {
		t.Error("single sharer: IsOnly(3) should be true")
	}
	if e.Dest().IsOnly(4) {
		t.Error("IsOnly(4) should be false when only 3 registered")
	}
	e.MapAdd(9)
	if e.Dest().IsOnly(3) {
		t.Error("IsOnly should be false with two sharers")
	}
}

func TestEntryDestMatchesFormat(t *testing.T) {
	var e Entry
	e.MapAdd(1)
	e.MapAdd(2)
	d := e.Dest()
	if d.IsPattern() {
		t.Fatal("pointer-format entry produced pattern dest")
	}
	if d != PointerDest(1, 2) {
		t.Fatalf("dest = %v, want ptr[n1 n2]", d)
	}
	for i := 0; i < 5; i++ {
		e.MapAdd(topology.NodeID(i * 50))
	}
	d = e.Dest()
	if !d.IsPattern() {
		t.Fatal("bit-pattern entry produced pointer dest")
	}
	if !d.Contains(1) || !d.Contains(2) {
		t.Fatal("pattern dest lost sharers")
	}
}

func TestDestSingle(t *testing.T) {
	d := Single(77)
	if d.IsPattern() || d.Count() != 1 || !d.Contains(77) || d.Contains(78) || d.Node() != 77 {
		t.Fatalf("Single(77) = %v", d)
	}
	m := d.Members(nil, 1024)
	if len(m) != 1 || m[0] != 77 {
		t.Fatalf("Single members = %v", m)
	}
}

// Property: an entry's represented set is always a superset of added
// sharers, across the pointer->bit-pattern switch, and set/clear
// operations never disturb state or reservation bits.
func TestPropertyEntrySupersetAcrossSwitch(t *testing.T) {
	f := func(raw []uint16, stateRaw uint8, reserved bool) bool {
		var e Entry
		e.SetState(State(stateRaw % 5))
		e.SetReserved(reserved)
		added := map[topology.NodeID]bool{}
		for _, r := range raw {
			n := topology.NodeID(r % topology.MaxNodes)
			e.MapAdd(n)
			added[n] = true
		}
		for n := range added {
			if !e.Dest().Contains(n) {
				return false
			}
		}
		if len(added) <= MaxPointers && e.Dest().IsPattern() {
			return false // must stay precise up to 4 sharers
		}
		if len(added) <= MaxPointers && e.Dest().Count() != len(added) {
			return false
		}
		return e.State() == State(stateRaw%5) && e.Reserved() == reserved
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: MapMembers(limit) only returns nodes < limit and includes
// every added node < limit.
func TestPropertyEntryMembersLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		var e Entry
		limit := 1 << (1 + rng.Intn(10)) // 2..1024
		added := map[topology.NodeID]bool{}
		k := 1 + rng.Intn(10)
		for i := 0; i < k; i++ {
			n := topology.NodeID(rng.Intn(limit))
			e.MapAdd(n)
			added[n] = true
		}
		got := e.Dest().Members(nil, limit)
		seen := map[topology.NodeID]bool{}
		for _, n := range got {
			if int(n) >= limit {
				t.Fatalf("member %d >= limit %d", n, limit)
			}
			seen[n] = true
		}
		for n := range added {
			if !seen[n] {
				t.Fatalf("added node %d missing from members (limit %d)", n, limit)
			}
		}
	}
}

func TestEntryStringForms(t *testing.T) {
	var e Entry
	e.MapAdd(1)
	if got, want := e.String(), "dir[C,ptr[n1]]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	for i := 0; i < 6; i++ {
		e.MapAdd(topology.NodeID(i))
	}
	e.SetReserved(true)
	if got, want := e.String(), "dir[R,C,bp[0001 0001 01 00000000000000000000000000111111]]"; got != want {
		t.Errorf("bit-pattern String() = %q, want %q", got, want)
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{Clean: "C", Dirty: "D", PendingShared: "Ps", PendingExclusive: "Pe", PendingInvalidate: "Pi"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
	if !PendingShared.Pending() || Clean.Pending() || Dirty.Pending() {
		t.Error("Pending() classification wrong")
	}
}
