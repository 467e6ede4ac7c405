// Package cache models the per-node secondary cache of Cenju-4: 1 MB,
// controlled by the R10000, 128-byte lines, MESI states. The simulator
// tracks tags and coherence states, not data contents — workloads are
// address streams, and block data values never influence timing.
package cache

import (
	"fmt"

	"cenju4/internal/topology"
)

// LineState is the MESI state of a cache line.
type LineState uint8

const (
	// Invalid: the line holds no valid copy.
	Invalid LineState = iota
	// Shared: a clean copy that other caches may also hold.
	Shared
	// Exclusive: the only cached copy, clean — stores upgrade silently.
	Exclusive
	// Modified: the only cached copy, dirty — replacement writes back.
	Modified
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("LineState(%d)", uint8(s))
}

// Config sizes a cache.
type Config struct {
	// SizeBytes is the total capacity (default 1 MB).
	SizeBytes int
	// Ways is the set associativity (default 2, as on the R10000 L2).
	Ways int
}

func (c Config) withDefaults() Config {
	if c.SizeBytes == 0 {
		c.SizeBytes = 1 << 20
	}
	if c.Ways == 0 {
		c.Ways = 2
	}
	return c
}

// Stats counts cache events.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Writebacks  uint64 // modified lines evicted
	Invalidates uint64 // lines killed by coherence actions
}

// Cache is one node's secondary cache.
//
// Storage layout (the scale-critical part — a 1024-node machine holds
// 1024 of these): each line is one packed uint64 word, block address in
// the high bits and the MESI state in bits 1-0 (block addresses are
// 128-byte aligned, so the low bits are free; a zero word is an Invalid
// line). A set is Ways consecutive words kept in most-recently-used
// order — a hit rotates its word to the front, so the victim when the
// set is full is simply the last word, with no per-line LRU tick. Sets
// are grouped into lazily allocated pages: a cache that is never
// touched costs a page-pointer table and nothing else, instead of the
// ~200 KB of eager line structs the previous layout allocated per node.
//
// The move-to-front order is observationally equivalent to the tick
// LRU it replaced: ticks were strictly monotonic, so "smallest tick"
// is exactly "least recently rotated to front"; invalidations compact
// their set so holes sit behind all valid lines, and which hole an
// insert consumes was never observable (an Invalid victim is not
// reported).
type Cache struct {
	cfg       Config
	nsets     int
	ways      int
	pageShift uint       // sets per page = 1 << pageShift
	pageMask  int        // setsPerPage - 1
	pages     [][]uint64 // nil until a set in the page is first written
	stats     Stats
}

const (
	lineStateMask = 0x3
	// cachePageSets is the number of sets per lazily allocated page
	// (chosen so a default-geometry page is 1 KB: 64 sets x 2 ways x 8 B).
	cachePageSets = 64
)

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	nsets := cfg.SizeBytes / (topology.BlockSize * cfg.Ways)
	if nsets < 1 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: size %d / ways %d yields bad set count %d", cfg.SizeBytes, cfg.Ways, nsets))
	}
	perPage := cachePageSets
	if perPage > nsets {
		perPage = nsets
	}
	shift := uint(0)
	for 1<<shift < perPage {
		shift++
	}
	return &Cache{
		cfg:       cfg,
		nsets:     nsets,
		ways:      cfg.Ways,
		pageShift: shift,
		pageMask:  perPage - 1,
		pages:     make([][]uint64, nsets/perPage),
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Sets returns the set count (for tests and capacity planning).
func (c *Cache) Sets() int { return c.nsets }

func (c *Cache) setIndex(addr topology.Addr) int {
	return int(uint64(addr)>>topology.BlockShift) & (c.nsets - 1)
}

// set returns the set's word slice for reading, or nil when its page
// has never been written (every line Invalid).
//
//cenju4:hotpath
func (c *Cache) set(si int) []uint64 {
	p := c.pages[si>>c.pageShift]
	if p == nil {
		return nil
	}
	base := (si & c.pageMask) * c.ways
	return p[base : base+c.ways]
}

// setForWrite returns the set's word slice, allocating its page on
// first touch.
func (c *Cache) setForWrite(si int) []uint64 {
	pi := si >> c.pageShift
	p := c.pages[pi]
	if p == nil {
		//cenju4:alloc-ok one page allocation covers cachePageSets sets for the cache's lifetime
		p = make([]uint64, (c.pageMask+1)*c.ways)
		c.pages[pi] = p
	}
	base := (si & c.pageMask) * c.ways
	return p[base : base+c.ways]
}

// findWay returns the way index holding block, or -1.
func findWay(s []uint64, block topology.Addr) int {
	for i, w := range s {
		if w&^lineStateMask == uint64(block) && w&lineStateMask != 0 {
			return i
		}
	}
	return -1
}

// moveToFront rotates s[i] to s[0], shifting s[0:i] back one way.
func moveToFront(s []uint64, i int) {
	if i == 0 {
		return
	}
	w := s[i]
	copy(s[1:i+1], s[0:i])
	s[0] = w
}

// State returns the MESI state of the block (Invalid when absent).
//
//cenju4:hotpath
func (c *Cache) State(addr topology.Addr) LineState {
	block := addr.Block()
	s := c.set(c.setIndex(block))
	if s == nil {
		return Invalid
	}
	if i := findWay(s, block); i >= 0 {
		return LineState(s[i] & lineStateMask)
	}
	return Invalid
}

// Access performs a processor load or store lookup. On a hit it updates
// recency, applies the silent E->M upgrade for stores, and returns
// (state-before-access, true). On a miss it returns (Invalid, false) —
// except a store to a Shared line, which is a "hit" in the array but
// still returns (Shared, false) at the protocol level because an
// ownership request is required; the caller upgrades via SetState after
// the transaction completes.
//
//cenju4:hotpath
func (c *Cache) Access(addr topology.Addr, store bool) (LineState, bool) {
	block := addr.Block()
	s := c.set(c.setIndex(block))
	i := -1
	if s != nil {
		i = findWay(s, block)
	}
	if i < 0 {
		c.stats.Misses++
		return Invalid, false
	}
	moveToFront(s, i)
	st := LineState(s[0] & lineStateMask)
	if !store {
		c.stats.Hits++
		return st, true
	}
	switch st {
	case Modified:
		c.stats.Hits++
		return Modified, true
	case Exclusive:
		s[0] = uint64(block) | uint64(Modified) // silent upgrade: sole clean copy
		c.stats.Hits++
		return Exclusive, true
	case Shared: // requires an ownership transaction
		c.stats.Misses++
		return Shared, false
	default:
		panic(fmt.Sprintf("cache: resident line in state %v", st))
	}
}

// Rehits counts n processor hits that the caller charged without a
// lookup: loads, and stores to a Modified line, of a resident block
// whose set order the caller keeps as Access would have left it.
//
//cenju4:hotpath
func (c *Cache) Rehits(n uint64) { c.stats.Hits += n }

// SetState changes the coherence state of a resident block (used by the
// protocol modules: invalidations, downgrades, upgrade completions). It
// is a no-op when the block is absent — an invalidation can legally
// target a silently evicted line.
//
//cenju4:hotpath
func (c *Cache) SetState(addr topology.Addr, st LineState) {
	block := addr.Block()
	s := c.set(c.setIndex(block))
	if s == nil {
		return
	}
	i := findWay(s, block)
	if i < 0 {
		return
	}
	if st == Invalid {
		c.stats.Invalidates++
		// Compact so holes stay behind every valid line (the
		// victim-is-last invariant).
		copy(s[i:], s[i+1:])
		s[len(s)-1] = 0
		return
	}
	s[i] = uint64(block) | uint64(st)
}

// Victim describes a block displaced by Insert.
type Victim struct {
	Addr      topology.Addr
	Writeback bool // the victim was Modified and must be written back
	Valid     bool // a block was displaced at all
}

// Insert allocates the block with the given state, evicting the
// least-recently-used way if the set is full. Clean victims are dropped
// silently (the directory keeps a stale sharer record; a later
// invalidation is simply acknowledged). Modified victims are reported
// for writeback.
//
//cenju4:hotpath
func (c *Cache) Insert(addr topology.Addr, st LineState) Victim {
	block := addr.Block()
	s := c.setForWrite(c.setIndex(block))
	if i := findWay(s, block); i >= 0 {
		// Re-insert (transaction completion on a resident line).
		moveToFront(s, i)
		s[0] = uint64(block) | uint64(st)
		return Victim{}
	}
	out := Victim{}
	last := len(s) - 1
	if w := s[last]; w&lineStateMask != 0 {
		// Set full: the last (least recent) way is the victim.
		vst := LineState(w & lineStateMask)
		out = Victim{Addr: topology.Addr(w &^ lineStateMask), Writeback: vst == Modified, Valid: true}
		if vst == Modified {
			c.stats.Writebacks++
		}
	} else {
		// Holes live behind valid lines; shrink the shift to the first one.
		for last > 0 && s[last-1]&lineStateMask == 0 {
			last--
		}
	}
	copy(s[1:last+1], s[0:last])
	s[0] = uint64(block) | uint64(st)
	return out
}

// Flush invalidates every line and returns the addresses of modified
// blocks needing writeback (used when a workload phase migrates data).
func (c *Cache) Flush() []topology.Addr {
	var dirty []topology.Addr
	for _, p := range c.pages {
		if p == nil {
			continue
		}
		for i, w := range p {
			if w&lineStateMask == uint64(Modified) {
				dirty = append(dirty, topology.Addr(w&^lineStateMask))
				c.stats.Writebacks++
			}
			p[i] = 0
		}
	}
	return dirty
}

// ForEachLine visits every valid line with its block address and state,
// in storage order (by set, most recently used first).
func (c *Cache) ForEachLine(fn func(block topology.Addr, st LineState)) {
	for _, p := range c.pages {
		for _, w := range p {
			if w&lineStateMask != 0 {
				fn(topology.Addr(w&^lineStateMask), LineState(w&lineStateMask))
			}
		}
	}
}

// Occupancy returns the number of valid lines (for tests).
func (c *Cache) Occupancy() int {
	n := 0
	c.ForEachLine(func(topology.Addr, LineState) { n++ })
	return n
}
