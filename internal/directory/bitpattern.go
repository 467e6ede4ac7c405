// Package directory implements the Cenju-4 directory entry and the
// node-map schemes it is compared against.
//
// Each 128-byte memory block is associated with one 64-bit directory
// entry holding a reservation bit, the block state, a format flag, and a
// node map — a record of the nodes caching the block. The node map
// starts as a pointer structure (up to four 10-bit node pointers) and
// dynamically switches to a bit-pattern structure when a fifth sharer
// appears. The bit-pattern structure encodes the 2+2+1+5 bit fields of a
// 10-bit node number as one-hot vectors of 4+4+2+32 = 42 bits, ORed over
// all sharers. Decoding yields the cross product of the set bits in each
// field: a superset of the true sharers that is exact for <= 4 sharers
// (pointer form) and for machines of <= 32 nodes (only the 32-bit field
// varies).
//
// The format bit and node map (bits 59-0 of the entry) are a Dest, the
// one node-map encoding of the simulator: the directory records sharers
// in it, and an invalidation carries the same word as its destination,
// so the network multicasts from the directory's own structure. Every
// node-map query (Members, Count, Contains, AnyMatch, PortMask) is a
// Dest method with one implementation per format, decoding the word in
// place.
//
// The package also implements the other node-map schemes of Figure 4 —
// coarse vector and hierarchical bit-map — behind a common NodeMap
// interface, plus Monte-Carlo precision evaluation and Table 1's
// storage-cost rows.
package directory

import (
	"fmt"
	"math/bits"

	"cenju4/internal/topology"
)

// Bit-pattern field geometry: a 10-bit node number n is split
// (MSB-first) into fields of 2, 2, 1 and 5 bits, each encoded one-hot.
const (
	// BitPatternBits is the total width of the bit-pattern structure.
	BitPatternBits = 42

	f4Width = 32 // one-hot of n[4:0]
	f3Width = 2  // one-hot of n[5]
	f2Width = 4  // one-hot of n[7:6]
	f1Width = 4  // one-hot of n[9:8]

	f4Shift = 0
	f3Shift = f4Shift + f4Width // 32
	f2Shift = f3Shift + f3Width // 34
	f1Shift = f2Shift + f2Width // 38

	f4Mask = (1<<f4Width - 1) << f4Shift
	f3Mask = (1<<f3Width - 1) << f3Shift
	f2Mask = (1<<f2Width - 1) << f2Shift
	f1Mask = (1<<f1Width - 1) << f1Shift
)

// BitPattern is the 42-bit bit-pattern node map, stored in the low 42
// bits of a uint64. The zero value is an empty map.
type BitPattern uint64

// EncodeNode returns the 42-bit pattern representing exactly one node.
func EncodeNode(n topology.NodeID) BitPattern {
	if n >= topology.MaxNodes {
		panic(fmt.Sprintf("directory: node %d out of range", n))
	}
	f1 := uint64(n) >> 8 & 0x3
	f2 := uint64(n) >> 6 & 0x3
	f3 := uint64(n) >> 5 & 0x1
	f4 := uint64(n) & 0x1f
	return BitPattern(1<<(f1Shift+f1) | 1<<(f2Shift+f2) | 1<<(f3Shift+f3) | 1<<(f4Shift+f4))
}

// Add ORs node n into the pattern.
func (p *BitPattern) Add(n topology.NodeID) { *p |= EncodeNode(n) }

// Union returns the OR of two patterns.
func (p BitPattern) Union(q BitPattern) BitPattern { return p | q }

// Empty reports whether no node is represented.
func (p BitPattern) Empty() bool { return p == 0 }

// fields returns the four one-hot fields (f1, f2, f3, f4).
func (p BitPattern) fields() (f1, f2, f3, f4 uint64) {
	v := uint64(p)
	return v & f1Mask >> f1Shift, v & f2Mask >> f2Shift, v & f3Mask >> f3Shift, v & f4Mask >> f4Shift
}

// Contains reports whether node n is in the represented set (the cross
// product of the fields). A true result does not imply n was Added —
// the structure is imprecise.
func (p BitPattern) Contains(n topology.NodeID) bool {
	return p&EncodeNode(n) == EncodeNode(n)
}

// Count returns the number of nodes in the represented set: the product
// of the per-field popcounts. An empty pattern counts zero.
func (p BitPattern) Count() int {
	if p == 0 {
		return 0
	}
	f1, f2, f3, f4 := p.fields()
	return bits.OnesCount64(f1) * bits.OnesCount64(f2) * bits.OnesCount64(f3) * bits.OnesCount64(f4)
}

// Members appends the represented node set (ascending) to dst and
// returns it. Nodes >= limit are skipped, so callers pass the machine
// size to confine decoding to real nodes.
func (p BitPattern) Members(dst []topology.NodeID, limit int) []topology.NodeID {
	if p == 0 {
		return dst
	}
	f1, f2, f3, f4 := p.fields()
	for a := 0; a < f1Width; a++ {
		if f1>>a&1 == 0 {
			continue
		}
		for b := 0; b < f2Width; b++ {
			if f2>>b&1 == 0 {
				continue
			}
			for c := 0; c < f3Width; c++ {
				if f3>>c&1 == 0 {
					continue
				}
				for d := 0; d < f4Width; d++ {
					if f4>>d&1 == 0 {
						continue
					}
					n := a<<8 | b<<6 | c<<5 | d
					if n < limit {
						dst = append(dst, topology.NodeID(n))
					}
				}
			}
		}
	}
	return dst
}

func (p BitPattern) String() string {
	f1, f2, f3, f4 := p.fields()
	return fmt.Sprintf("bp[%04b %04b %02b %032b]", f1, f2, f3, f4)
}
