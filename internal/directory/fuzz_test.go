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
// field varies), and MapContains and MapCount must agree with
// MapMembers. The seed corpus in testdata/fuzz covers the pointer form,
// the switch at the fifth sharer, the 32-node boundary and the
// 1024-node cross product.
func FuzzEntryNodeMap(f *testing.F) {
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
		members := e.MapMembers(nil, nodes)
		for n := range added {
			if !slices.Contains(members, n) {
				t.Fatalf("%d nodes, added %v: decoded %v lacks node %d", nodes, added, members, n)
			}
		}
		if (len(added) <= MaxPointers || nodes <= 32) && len(members) != len(added) {
			t.Fatalf("%d nodes, %d distinct sharers: decoded %v is not exact for %v", nodes, len(added), members, added)
		}
		if e.MapCount() != len(members) {
			t.Fatalf("%d nodes: MapCount %d, MapMembers has %d (%v)", nodes, e.MapCount(), len(members), members)
		}
		for n := 0; n < nodes; n++ {
			id := topology.NodeID(n)
			if e.MapContains(id) != slices.Contains(members, id) {
				t.Fatalf("%d nodes: MapContains(%d) = %v, MapMembers %v", nodes, n, e.MapContains(id), members)
			}
		}
	})
}
