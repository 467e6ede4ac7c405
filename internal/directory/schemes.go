package directory

import (
	"fmt"

	"cenju4/internal/topology"
)

// NodeMap is the common interface over the imprecise directory
// node-map schemes the Figure 4 precision comparison measures. Add
// records a sharer; Count returns the size of the represented set (>=
// the number of added sharers); Members decodes the represented set.
type NodeMap interface {
	Add(n topology.NodeID)
	Contains(n topology.NodeID) bool
	Count() int
	Members(dst []topology.NodeID) []topology.NodeID
	Clear()
	// Bits returns the storage the scheme uses per entry, in bits.
	Bits() int
	Name() string
}

// Scheme constructs NodeMaps for a machine of a given size.
type Scheme struct {
	Name string
	New  func(totalNodes int) NodeMap
}

// Schemes returns the three imprecise schemes compared in Figure 4,
// parameterized as in the paper: a 32-bit coarse vector, a 24-bit
// hierarchical bit-map (six 4-bit fields), and the 42-bit bit-pattern
// (with the 4-pointer precise prefix, as in Cenju-4).
func Schemes() []Scheme {
	return []Scheme{
		{Name: "coarse vector (32b)", New: func(n int) NodeMap { return NewCoarseVector(n, 32) }},
		{Name: "hierarchical bit-map (24b)", New: func(n int) NodeMap { return NewHierarchicalBitmap(n, 6) }},
		{Name: "bit-pattern (42b)", New: func(n int) NodeMap { return NewPointerBitPattern(n) }},
	}
}

// ---------------------------------------------------------------------
// Coarse vector (Gupta et al.): nodes divided into groups; one bit per
// group. With 1024 nodes and 32 bits, each bit covers 32 nodes.

// CoarseVector is an imprecise group-bit map.
type CoarseVector struct {
	vec       uint64
	bitsN     int
	groupSize int
	total     int
}

// NewCoarseVector returns a coarse vector of vecBits bits covering
// totalNodes nodes. Group size is ceil(totalNodes/vecBits), minimum 1.
func NewCoarseVector(totalNodes, vecBits int) *CoarseVector {
	if vecBits < 1 || vecBits > 64 {
		panic(fmt.Sprintf("directory: coarse vector width %d out of range", vecBits))
	}
	gs := (totalNodes + vecBits - 1) / vecBits
	if gs < 1 {
		gs = 1
	}
	return &CoarseVector{bitsN: vecBits, groupSize: gs, total: totalNodes}
}

func (m *CoarseVector) group(n topology.NodeID) int { return int(n) / m.groupSize }

func (m *CoarseVector) Add(n topology.NodeID) { m.vec |= 1 << m.group(n) }

func (m *CoarseVector) Contains(n topology.NodeID) bool {
	return m.vec>>m.group(n)&1 == 1
}

func (m *CoarseVector) Count() int {
	c := 0
	for g := 0; g < m.bitsN; g++ {
		if m.vec>>g&1 == 1 {
			lo := g * m.groupSize
			hi := lo + m.groupSize
			if hi > m.total {
				hi = m.total
			}
			if hi > lo {
				c += hi - lo
			}
		}
	}
	return c
}

func (m *CoarseVector) Members(dst []topology.NodeID) []topology.NodeID {
	for g := 0; g < m.bitsN; g++ {
		if m.vec>>g&1 == 1 {
			for n := g * m.groupSize; n < (g+1)*m.groupSize && n < m.total; n++ {
				dst = append(dst, topology.NodeID(n))
			}
		}
	}
	return dst
}

func (m *CoarseVector) Clear()       { m.vec = 0 }
func (m *CoarseVector) Bits() int    { return m.bitsN }
func (m *CoarseVector) Name() string { return fmt.Sprintf("coarse vector (%db)", m.bitsN) }

// ---------------------------------------------------------------------
// Hierarchical bit-map (Matsumoto et al., JUMP-1): the node map consists
// of one 4-bit field per level of the network's quadruple tree; bit b of
// field L is set when any sharer's path uses branch b at level L. The
// same field is shared by all switches of a level, which couples the
// representation to the network shape and costs precision. Decoding
// yields every leaf whose per-level branch choices are all marked.

// HierarchicalBitmap is the JUMP-1-style per-tree-level map.
type HierarchicalBitmap struct {
	fields []uint8 // one 4-bit field per level, index 0 = root level
	levels int
	total  int
}

// NewHierarchicalBitmap returns a map with the given number of 4-bit
// levels over totalNodes leaves. The paper compares a 24-bit, six-level
// variant (the Cenju-4 network is a six-level quadruple tree). Levels
// beyond those needed to address totalNodes still exist but only ever
// have one useful branch.
func NewHierarchicalBitmap(totalNodes, levels int) *HierarchicalBitmap {
	if levels < 1 {
		panic("directory: hierarchical bitmap needs >= 1 level")
	}
	return &HierarchicalBitmap{fields: make([]uint8, levels), levels: levels, total: totalNodes}
}

// branch returns node n's branch digit at level L (level 0 = root,
// deciding the most significant radix-4 digit).
func (m *HierarchicalBitmap) branch(n topology.NodeID, level int) int {
	shift := 2 * (m.levels - 1 - level)
	return int(uint64(n)>>shift) & 3
}

func (m *HierarchicalBitmap) Add(n topology.NodeID) {
	for l := 0; l < m.levels; l++ {
		m.fields[l] |= 1 << m.branch(n, l)
	}
}

func (m *HierarchicalBitmap) Contains(n topology.NodeID) bool {
	for l := 0; l < m.levels; l++ {
		if m.fields[l]>>m.branch(n, l)&1 == 0 {
			return false
		}
	}
	return true
}

func (m *HierarchicalBitmap) Count() int {
	// Exact count of decoded leaves below total: enumerating the cross
	// product while clipping to real nodes.
	c := 0
	m.walk(0, 0, &c, nil)
	return c
}

// walk enumerates decoded leaves; if dst != nil it appends them.
func (m *HierarchicalBitmap) walk(level, prefix int, count *int, dst *[]topology.NodeID) {
	if level == m.levels {
		if prefix < m.total {
			*count++
			if dst != nil {
				*dst = append(*dst, topology.NodeID(prefix))
			}
		}
		return
	}
	f := m.fields[level]
	if f == 0 {
		return
	}
	for b := 0; b < 4; b++ {
		if f>>b&1 == 1 {
			m.walk(level+1, prefix<<2|b, count, dst)
		}
	}
}

func (m *HierarchicalBitmap) Members(dst []topology.NodeID) []topology.NodeID {
	c := 0
	m.walk(0, 0, &c, &dst)
	return dst
}

func (m *HierarchicalBitmap) Clear() {
	for i := range m.fields {
		m.fields[i] = 0
	}
}

func (m *HierarchicalBitmap) Bits() int { return 4 * m.levels }
func (m *HierarchicalBitmap) Name() string {
	return fmt.Sprintf("hierarchical bit-map (%db)", 4*m.levels)
}

// ---------------------------------------------------------------------
// Cenju-4: pointer structure (precise, up to 4) dynamically switching to
// the 42-bit bit-pattern structure.

// PointerBitPattern is the Cenju-4 node map as a standalone NodeMap.
type PointerBitPattern struct {
	dest  Dest
	total int
}

// NewPointerBitPattern returns the Cenju-4 scheme for totalNodes nodes.
func NewPointerBitPattern(totalNodes int) *PointerBitPattern {
	return &PointerBitPattern{total: totalNodes}
}

func (m *PointerBitPattern) Add(n topology.NodeID)           { m.dest = m.dest.Add(n) }
func (m *PointerBitPattern) Contains(n topology.NodeID) bool { return m.dest.Contains(n) }
func (m *PointerBitPattern) Count() int {
	if !m.dest.IsPattern() {
		return m.dest.Count()
	}
	// Clip the cross product to real nodes.
	return len(m.dest.Members(nil, m.total))
}
func (m *PointerBitPattern) Members(dst []topology.NodeID) []topology.NodeID {
	return m.dest.Members(dst, m.total)
}
func (m *PointerBitPattern) Clear()    { m.dest = 0 }
func (m *PointerBitPattern) Bits() int { return BitPatternBits }
func (m *PointerBitPattern) Name() string {
	return "pointer + bit-pattern (42b)"
}

// Precise reports whether the map is still in the exact pointer form.
func (m *PointerBitPattern) Precise() bool { return !m.dest.IsPattern() }

// ---------------------------------------------------------------------
// Table 1: qualitative scalability characteristics.

// Characteristic is one row of Table 1.
type Characteristic struct {
	Scheme        string
	HardwareScale bool // directory storage independent of node count
	AccessScale   bool // all sharers identified with one directory access
	Note          string
}

// Table1 returns the paper's Table 1: scalability characteristics of
// directory schemes.
func Table1() []Characteristic {
	return []Characteristic{
		{"Full Map", false, false, "storage grows with node count"},
		{"Chained (SCI)", true, false, "sharer list walked through caches"},
		{"LimitLESS", true, false, "software traps beyond pointer limit"},
		{"Dynamic Pointer", true, false, "pointer chains in memory"},
		{"Origin (Full Map + Coarse Vector)", true, true, "imprecise beyond vector resolution"},
		{"Cenju-4 (Pointer + Bit Pattern)", true, true, "imprecise beyond 4 sharers, precise <= 32 nodes"},
	}
}
