// Package shmem is the shared memory library of the paper's Section
// 4.2: it allocates distributed shared arrays, applies the data
// mappings that programs specify to localize accesses, and allocates
// private (per-node) arrays for the optimized dsm(2) variants that map
// shared data into private memory.
//
// "No data mappings" places every shared block in node 0's memory (the
// default placement); blocked and cyclic mappings distribute blocks so
// each node's partition is homed locally — the single most important
// optimization the paper evaluates (Table 3's local/remote shifts).
package shmem

import (
	"fmt"

	"cenju4/internal/topology"
)

// ElemSize is the element size of all workload arrays (float64).
const ElemSize = 8

// Mapping selects a shared region's block placement.
type Mapping uint8

const (
	// MapNone homes every block at node 0 ("no data mappings").
	MapNone Mapping = iota
	// MapBlocked gives each node one contiguous chunk, homed locally.
	MapBlocked
	// MapCyclic distributes blocks round-robin across nodes.
	MapCyclic
)

func (m Mapping) String() string {
	switch m {
	case MapNone:
		return "none"
	case MapBlocked:
		return "blocked"
	case MapCyclic:
		return "cyclic"
	}
	return fmt.Sprintf("Mapping(%d)", uint8(m))
}

// Allocator manages the shared and private address spaces of a machine.
type Allocator struct {
	nodes      int
	sharedOff  []uint64 // per-node shared bump pointer (block aligned)
	privateOff uint64   // SPMD private bump pointer (same layout every node)
}

// NewAllocator returns an allocator for a machine of n nodes.
//
// Each home's allocation space starts at a node-dependent skew. Without
// it, every node's partition of every region would begin at offset 0 of
// its home and all partitions would collide in the same low cache sets
// (the cache indexes offset bits only — the node number sits above
// them), a systematic aliasing pathology that real systems avoid
// because the OS places physical pages at varied offsets.
func NewAllocator(n int) *Allocator {
	a := &Allocator{nodes: n, sharedOff: make([]uint64, n)}
	for i := range a.sharedOff {
		a.sharedOff[i] = uint64((i*9973)%4096) * topology.BlockSize
	}
	return a
}

// Region is a distributed shared array of float64 elements.
type Region struct {
	name    string
	elems   int
	mapping Mapping
	nodes   int
	chunk   int      // elements per node chunk (blocked mapping)
	bases   []uint64 // per-home base offset of this region's storage
	sizes   []uint64 // per-home storage size in bytes (block aligned)
}

// Shared allocates a shared region of elems elements under the given
// mapping.
func (a *Allocator) Shared(name string, elems int, m Mapping) *Region {
	if elems <= 0 {
		panic(fmt.Sprintf("shmem: region %q with %d elements", name, elems))
	}
	r := &Region{name: name, elems: elems, mapping: m, nodes: a.nodes}
	r.chunk = (elems + a.nodes - 1) / a.nodes
	// Reserve block-aligned storage at every home that will hold data.
	perHome := make([]uint64, a.nodes)
	switch m {
	case MapNone:
		perHome[0] = uint64(elems) * ElemSize
	case MapBlocked:
		for n := 0; n < a.nodes; n++ {
			lo, hi := r.ownerRange(n)
			if hi > lo {
				perHome[n] = uint64(hi-lo) * ElemSize
			}
		}
	case MapCyclic:
		blocks := (elems*ElemSize + topology.BlockSize - 1) / topology.BlockSize
		per := (blocks + a.nodes - 1) / a.nodes
		for n := 0; n < a.nodes; n++ {
			perHome[n] = uint64(per) * topology.BlockSize
		}
	}
	r.bases = make([]uint64, a.nodes)
	r.sizes = make([]uint64, a.nodes)
	for n := 0; n < a.nodes; n++ {
		r.bases[n] = a.sharedOff[n]
		sz := (perHome[n] + topology.BlockSize - 1) &^ (topology.BlockSize - 1)
		r.sizes[n] = sz
		a.sharedOff[n] += sz
	}
	return r
}

// Contains reports whether addr falls inside this region's storage —
// used to mark regions for the update-protocol extension.
func (r *Region) Contains(addr topology.Addr) bool {
	if !addr.Shared() {
		return false
	}
	h := int(addr.Home())
	if h >= r.nodes {
		return false
	}
	off := addr.Offset()
	return off >= r.bases[h] && off < r.bases[h]+r.sizes[h]
}

// Name returns the region's name.
func (r *Region) Name() string { return r.name }

// Len returns the element count.
func (r *Region) Len() int { return r.elems }

// Mapping returns the region's mapping.
func (r *Region) Mapping() Mapping { return r.mapping }

func (r *Region) ownerRange(node int) (lo, hi int) {
	lo = node * r.chunk
	hi = lo + r.chunk
	if lo > r.elems {
		lo = r.elems
	}
	if hi > r.elems {
		hi = r.elems
	}
	return lo, hi
}

// OwnerRange returns the element range [lo,hi) that node's chunk covers
// (the owner-computes partition, independent of the mapping).
func (r *Region) OwnerRange(node topology.NodeID) (lo, hi int) {
	return r.ownerRange(int(node))
}

// Addr returns the physical address of element i.
func (r *Region) Addr(i int) topology.Addr {
	if i < 0 || i >= r.elems {
		panic(fmt.Sprintf("shmem: %s[%d] out of range (len %d)", r.name, i, r.elems))
	}
	switch r.mapping {
	case MapNone:
		return topology.SharedAddr(0, r.bases[0]+uint64(i)*ElemSize)
	case MapBlocked:
		home := i / r.chunk
		local := i - home*r.chunk
		return topology.SharedAddr(topology.NodeID(home), r.bases[home]+uint64(local)*ElemSize)
	case MapCyclic:
		byteOff := uint64(i) * ElemSize
		blk := byteOff / topology.BlockSize
		home := blk % uint64(r.nodes)
		localBlk := blk / uint64(r.nodes)
		return topology.SharedAddr(topology.NodeID(home),
			r.bases[home]+localBlk*topology.BlockSize+byteOff%topology.BlockSize)
	default:
		panic(fmt.Sprintf("shmem: %s has unknown mapping %d", r.name, r.mapping))
	}
}

// Span returns the address of element i and the length n of the run of
// elements from i on that lie contiguously in i's cache block:
// Addr(i+k) == Addr(i) + k*ElemSize for every k < n. A blocked run
// also ends at its chunk, whose successor lives at another home.
// Workload generators call Span once per block rather than Addr once
// per element.
func (r *Region) Span(i int) (topology.Addr, int) {
	a := r.Addr(i)
	end := r.elems
	if r.mapping == MapBlocked {
		end = min(end, (i/r.chunk+1)*r.chunk)
	}
	return a, blockRun(a, end-i)
}

// blockRun caps a run of left elements starting at a at the end of a's
// cache block.
func blockRun(a topology.Addr, left int) int {
	return min(left, int(topology.BlockSize-a.Offset()%topology.BlockSize)/ElemSize)
}

// Home returns the home node of element i.
func (r *Region) Home(i int) topology.NodeID { return r.Addr(i).Home() }

// PrivRegion is a per-node private array: the same layout exists in
// every node's private memory, and accesses never generate coherence
// traffic.
type PrivRegion struct {
	name  string
	elems int
	base  uint64
}

// Private allocates a private region of elems elements (SPMD: one
// instance per node at the same offsets).
func (a *Allocator) Private(name string, elems int) *PrivRegion {
	if elems <= 0 {
		panic(fmt.Sprintf("shmem: private region %q with %d elements", name, elems))
	}
	r := &PrivRegion{name: name, elems: elems, base: a.privateOff}
	sz := (uint64(elems)*ElemSize + topology.BlockSize - 1) &^ (topology.BlockSize - 1)
	a.privateOff += sz
	return r
}

// Len returns the element count.
func (r *PrivRegion) Len() int { return r.elems }

// Addr returns the private address of element i (valid on any node; the
// address names that node's own memory).
func (r *PrivRegion) Addr(i int) topology.Addr {
	if i < 0 || i >= r.elems {
		panic(fmt.Sprintf("shmem: %s[%d] out of range (len %d)", r.name, i, r.elems))
	}
	return topology.PrivateAddr(r.base + uint64(i)*ElemSize)
}

// Span is Region.Span for a private array.
func (r *PrivRegion) Span(i int) (topology.Addr, int) {
	a := r.Addr(i)
	return a, blockRun(a, r.elems-i)
}
