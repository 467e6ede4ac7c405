package directory

import (
	"encoding/binary"
	"slices"
	"testing"

	"cenju4/internal/topology"
)

// FuzzEntryNodeMap: on a machine of 2^(k%11) nodes, MapAdd a list of
// node IDs (little-endian uint16 pairs of ids, reduced modulo the
// machine size) to an empty entry. The decoded map must cover every
// added node, must be exact while the pointer form holds (at most four
// distinct sharers) or the machine has at most 32 nodes (only the 5-bit
// field varies), and Dest().Contains and Dest().Count must agree with
// Dest().Members. The map word must be canonical — pointer slots above
// the count and unused bits zero — because SingleTo compares whole
// words; a one-sharer map is SingleTo its sharer. Before fuzzing,
// PointerDest(n), Single(n), Node and SingleTo are checked to agree on
// every node number. The seed corpus in testdata/fuzz covers the
// pointer form, the switch at the fifth sharer, the 32-node boundary and
// the 1024-node cross product.
func FuzzEntryNodeMap(f *testing.F) {
	for i := 0; i < topology.MaxNodes; i++ {
		n := topology.NodeID(i)
		if d := Single(n); d != PointerDest(n) || d.Node() != n || !d.SingleTo(n) {
			f.Fatalf("Single(%d) = %v: PointerDest %v, Node %d, SingleTo %v", n, d, PointerDest(n), d.Node(), d.SingleTo(n))
		}
	}
	f.Add(uint8(3), []byte{1, 0, 5, 0})
	f.Add(uint8(10), []byte{0, 0, 255, 3, 32, 0, 64, 1, 128, 2})
	f.Fuzz(func(t *testing.T, k uint8, ids []byte) {
		nodes := 1 << (k % 11)
		var e Entry
		added := map[topology.NodeID]bool{}
		for i := 0; i+1 < len(ids); i += 2 {
			n := topology.NodeID(int(binary.LittleEndian.Uint16(ids[i:])) % nodes)
			e.MapAdd(n)
			added[n] = true
		}
		d := e.Dest()
		members := d.Members(nil, nodes)
		for n := range added {
			if !slices.Contains(members, n) {
				t.Fatalf("%d nodes, added %v: decoded %v lacks node %d", nodes, added, members, n)
			}
		}
		if (len(added) <= MaxPointers || nodes <= 32) && len(members) != len(added) {
			t.Fatalf("%d nodes, %d distinct sharers: decoded %v is not exact for %v", nodes, len(added), members, added)
		}
		if d.Count() != len(members) {
			t.Fatalf("%d nodes: Count %d, Members has %d (%v)", nodes, d.Count(), len(members), members)
		}
		for n := 0; n < nodes; n++ {
			id := topology.NodeID(n)
			if d.Contains(id) != slices.Contains(members, id) {
				t.Fatalf("%d nodes: Contains(%d) = %v, Members %v", nodes, n, d.Contains(id), members)
			}
		}
		canon := PatternDest(d.Pattern())
		if !d.IsPattern() {
			canon = PointerDest(members...)
		}
		if d != canon {
			t.Fatalf("%d nodes, added %v: map word %#x is not canonical %#x", nodes, added, uint64(d), uint64(canon))
		}
		for n := range added {
			if len(added) == 1 && !d.SingleTo(n) {
				t.Fatalf("one sharer %d: %v is not SingleTo it", n, d)
			}
		}
	})
}
