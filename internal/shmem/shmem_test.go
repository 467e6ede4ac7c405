package shmem

import (
	"testing"
	"testing/quick"

	"cenju4/internal/topology"
)

func TestMapNoneHomesEverythingAtZero(t *testing.T) {
	a := NewAllocator(16)
	r := a.Shared("u", 1000, MapNone)
	for i := 0; i < 1000; i += 37 {
		if r.Home(i) != 0 {
			t.Fatalf("element %d homed at %v, want 0", i, r.Home(i))
		}
	}
}

func TestMapBlockedHomesChunksLocally(t *testing.T) {
	a := NewAllocator(4)
	r := a.Shared("u", 64, MapBlocked) // 16 elements per node
	for i := 0; i < 64; i++ {
		want := topology.NodeID(i / 16)
		if r.Home(i) != want {
			t.Fatalf("element %d homed at %v, want %v", i, r.Home(i), want)
		}
	}
	lo, hi := r.OwnerRange(2)
	if lo != 32 || hi != 48 {
		t.Fatalf("OwnerRange(2) = %d,%d", lo, hi)
	}
}

func TestMapBlockedUnevenTail(t *testing.T) {
	a := NewAllocator(4)
	r := a.Shared("u", 10, MapBlocked) // chunk=3: nodes get 3,3,3,1
	lo, hi := r.OwnerRange(3)
	if lo != 9 || hi != 10 {
		t.Fatalf("OwnerRange(3) = %d,%d, want 9,10", lo, hi)
	}
	if r.Home(9) != 3 {
		t.Fatalf("Home(9) = %v, want 3", r.Home(9))
	}
}

func TestMapCyclicRoundRobinByBlock(t *testing.T) {
	a := NewAllocator(4)
	// 16 elements per block (128/8): elements 0..15 block 0, 16..31 block 1...
	r := a.Shared("u", 256, MapCyclic)
	if r.Home(0) != 0 || r.Home(15) != 0 {
		t.Fatal("block 0 not homed at node 0")
	}
	if r.Home(16) != 1 || r.Home(47) != 2 {
		t.Fatalf("cyclic homes wrong: Home(16)=%v Home(47)=%v", r.Home(16), r.Home(47))
	}
	if r.Home(64) != 0 {
		t.Fatalf("wraparound: Home(64)=%v, want 0", r.Home(64))
	}
}

// Distinct regions must never overlap in the shared address space.
func TestRegionsDoNotOverlap(t *testing.T) {
	a := NewAllocator(4)
	r1 := a.Shared("u", 100, MapBlocked)
	r2 := a.Shared("v", 100, MapBlocked)
	r3 := a.Shared("w", 100, MapNone)
	seen := map[topology.Addr]string{}
	for _, r := range []*Region{r1, r2, r3} {
		for i := 0; i < r.Len(); i++ {
			blk := r.Addr(i).Block()
			if owner, ok := seen[blk]; ok && owner != r.Name() {
				t.Fatalf("block %v shared by regions %s and %s", blk, owner, r.Name())
			}
			seen[blk] = r.Name()
		}
	}
}

func TestPrivateRegions(t *testing.T) {
	a := NewAllocator(4)
	p1 := a.Private("scratch", 64)
	p2 := a.Private("buf", 64)
	if p1.Addr(0).Shared() {
		t.Fatal("private address marked shared")
	}
	if p1.Addr(63).Block() == p2.Addr(0).Block() {
		t.Fatal("private regions overlap")
	}
	if p1.Len() != 64 {
		t.Fatalf("Len() = %d", p1.Len())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	a := NewAllocator(4)
	r := a.Shared("u", 10, MapBlocked)
	p := a.Private("p", 10)
	for name, fn := range map[string]func(){
		"shared over":  func() { r.Addr(10) },
		"shared under": func() { r.Addr(-1) },
		"priv over":    func() { p.Addr(10) },
		"empty region": func() { a.Shared("bad", 0, MapNone) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: every address decodes back to a consistent home and all
// addresses within a region are distinct.
func TestPropertyAddressesDistinct(t *testing.T) {
	f := func(rawNodes, rawElems uint8, m uint8) bool {
		nodes := 1 << (rawNodes % 5) // 1..16
		elems := 1 + int(rawElems)
		a := NewAllocator(nodes)
		r := a.Shared("u", elems, Mapping(m%3))
		seen := map[topology.Addr]bool{}
		for i := 0; i < elems; i++ {
			ad := r.Addr(i)
			if seen[ad] {
				return false
			}
			seen[ad] = true
			if int(ad.Home()) >= nodes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMappingString(t *testing.T) {
	if MapNone.String() != "none" || MapBlocked.String() != "blocked" || MapCyclic.String() != "cyclic" {
		t.Fatal("mapping strings wrong")
	}
}

// Span(i) must return Addr(i) and the longest run of elements from i
// on that follow it at ElemSize steps within its cache block.
func TestSpan(t *testing.T) {
	a := NewAllocator(4)
	regions := map[string]interface {
		Len() int
		Addr(int) topology.Addr
		Span(int) (topology.Addr, int)
	}{
		"none":    a.Shared("none", 200, MapNone),
		"blocked": a.Shared("blocked", 300, MapBlocked), // chunk 75: not a multiple of 16
		"cyclic":  a.Shared("cyclic", 250, MapCyclic),
		"private": a.Private("private", 90),         // last block holds 10 elements
		"tiny":    a.Shared("tiny", 10, MapBlocked), // chunk 3: 1-element tail
	}
	for name, r := range regions {
		for i := 0; i < r.Len(); i++ {
			addr, n := r.Span(i)
			if addr != r.Addr(i) {
				t.Fatalf("%s.Span(%d) address %v, want %v", name, i, addr, r.Addr(i))
			}
			want := 0
			for k := 0; i+k < r.Len(); k++ {
				ak := r.Addr(i + k)
				if ak != addr+topology.Addr(k*ElemSize) || ak.Block() != addr.Block() {
					break
				}
				want++
			}
			if n != want {
				t.Fatalf("%s.Span(%d) run %d, want %d", name, i, n, want)
			}
		}
	}
}
