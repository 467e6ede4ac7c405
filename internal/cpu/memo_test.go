package cpu

import (
	"testing"

	"cenju4/internal/cache"
	"cenju4/internal/core"
	"cenju4/internal/network"
	"cenju4/internal/sim"
	"cenju4/internal/topology"
)

// Differential tests for step's same-block memo. Each sequence runs on
// a fresh node twice: once with the default quantum, where the memo
// spans many accesses, and once as a reference with Quantum 1 and a
// zero-instruction compute op after every access. Memory ops never end
// a step on their own, but the compute op does once the access has
// charged any time, so in the reference every access starts a new step
// with an empty memo, and the extra ops add no instructions or time.
// Everything observable must match: the CPU and cache counters, the
// clock, and the final state of every touched block.

type memoRun struct {
	stats  Stats
	cache  cache.Stats
	now    sim.Time
	states []cache.LineState
}

func runMemo(t *testing.T, quantum sim.Time, seed func(*cache.Cache), ops []Op) memoRun {
	t.Helper()
	eng := sim.NewEngine()
	net := network.New(eng, network.Config{Nodes: 2, Multicast: true})
	ctrl := core.New(eng, net, core.Config{Node: 0, Nodes: 2})
	net.Attach(0, ctrl.Deliver)
	other := core.New(eng, net, core.Config{Node: 1, Nodes: 2})
	net.Attach(1, other.Deliver)
	c := New(eng, ctrl, &nullSync{}, Config{Node: 0, Quantum: quantum})
	if seed != nil {
		seed(ctrl.Cache())
	}
	done := false
	c.Run(&SliceProgram{Ops: ops}, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("program did not finish")
	}
	r := memoRun{stats: c.Stats(), cache: ctrl.Cache().Stats(), now: eng.Now()}
	for _, op := range ops {
		if op.Kind == OpLoad || op.Kind == OpStore {
			r.states = append(r.states, ctrl.Cache().State(op.Addr))
		}
	}
	return r
}

func checkMemo(t *testing.T, seed func(*cache.Cache), ops []Op) {
	t.Helper()
	got := runMemo(t, 0, seed, ops)
	var sliced []Op
	for _, op := range ops {
		sliced = append(sliced, op)
		if op.Kind == OpLoad || op.Kind == OpStore {
			sliced = append(sliced, Op{Kind: OpCompute})
		}
	}
	want := runMemo(t, 1, seed, sliced)
	if got.stats != want.stats {
		t.Errorf("cpu stats\n got %+v\nwant %+v", got.stats, want.stats)
	}
	if got.cache != want.cache {
		t.Errorf("cache stats got %+v, want %+v", got.cache, want.cache)
	}
	if got.now != want.now {
		t.Errorf("finished at %v, want %v", got.now, want.now)
	}
	for i := range got.states {
		if got.states[i] != want.states[i] {
			t.Errorf("access %d: final block state %v, want %v", i, got.states[i], want.states[i])
		}
	}
	if got.cache.Hits == 0 {
		t.Error("sequence never hit: it does not exercise the memo")
	}
}

// setStride is the address distance between consecutive blocks of one
// cache set (default geometry: 1 MB, 2 ways).
const setStride = topology.Addr((1 << 20) / 2)

func ld(a topology.Addr) Op { return Op{Kind: OpLoad, Addr: a} }
func st(a topology.Addr) Op { return Op{Kind: OpStore, Addr: a} }

// word returns the address of the k-th element of a block.
func word(block topology.Addr, k int) topology.Addr { return block + topology.Addr(8*k) }

func TestMemoSameSetAlternation(t *testing.T) {
	a := topology.PrivateAddr(0x4000)
	b := a + setStride // same set, other way
	var ops []Op
	for k := 0; k < 8; k++ {
		ops = append(ops, ld(word(a, k)), ld(word(b, k)), st(word(a, k)))
	}
	checkMemo(t, nil, ops)
}

func TestMemoStoreToSharedLine(t *testing.T) {
	x := topology.SharedAddr(1, 0x800)
	seed := func(c *cache.Cache) { c.Insert(x, cache.Shared) }
	// The loads hit the seeded Shared copy; the store must still take
	// the ownership path, and the accesses after it hit the owned line.
	checkMemo(t, seed, []Op{ld(x), ld(word(x, 1)), st(word(x, 2)), ld(word(x, 3)), st(word(x, 4))})
}

func TestMemoExclusiveUpgrade(t *testing.T) {
	p := topology.PrivateAddr(0x8000)
	s := topology.SharedAddr(0, 0x1000)
	checkMemo(t, nil, []Op{
		ld(p), ld(word(p, 1)), st(word(p, 2)), st(word(p, 3)), ld(word(p, 4)),
		ld(s), ld(word(s, 1)), st(word(s, 2)), st(word(s, 3)), ld(word(s, 4)),
	})
}

func TestMemoPrivateMissEvictsMemoized(t *testing.T) {
	a := topology.PrivateAddr(0x10000)
	b, c := a+setStride, a+2*setStride
	s := topology.SharedAddr(0, 0x10000) // same set as a, b and c
	checkMemo(t, nil, []Op{
		ld(a), ld(b), ld(word(a, 1)), // a at the front, b behind it
		ld(c), // evicts b
		ld(word(a, 2)), ld(word(b, 1)), ld(word(c, 1)),
		st(s), st(word(s, 1)), // a Modified shared line in the set...
		ld(word(a, 3)), ld(word(b, 2)), // ...evicted by private misses
		ld(word(s, 2)),
	})
}

func TestMemoQuantumMidBlock(t *testing.T) {
	a := topology.PrivateAddr(0x20000)
	s := topology.SharedAddr(1, 0x2000)
	var ops []Op
	for k := 0; k < 16; k++ {
		ops = append(ops, ld(word(a, k)), ld(word(s, k)))
		if k%5 == 4 {
			// Over the default 20 us quantum: the step ends mid-block.
			ops = append(ops, Op{Kind: OpCompute, N: 5000})
		}
		ops = append(ops, st(word(a, k)))
	}
	checkMemo(t, nil, ops)
}

func TestMemoRandomMix(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		x := seed
		next := func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x
		}
		// Blocks in two sets, private and shared at both homes.
		var blocks []topology.Addr
		for set := topology.Addr(0); set < 2; set++ {
			base := set * topology.BlockSize
			for way := topology.Addr(0); way < 2; way++ {
				off := base + way*setStride
				blocks = append(blocks, topology.PrivateAddr(uint64(off)),
					topology.SharedAddr(0, uint64(off)), topology.SharedAddr(1, uint64(off)))
			}
		}
		var ops []Op
		for i := 0; i < 400; i++ {
			r := next()
			a := word(blocks[r%uint64(len(blocks))], int(r>>8%16))
			switch r >> 16 % 8 {
			case 0:
				ops = append(ops, Op{Kind: OpCompute, N: r >> 24 % 3000})
			case 1, 2:
				ops = append(ops, st(a))
			default:
				ops = append(ops, ld(a))
			}
		}
		checkMemo(t, nil, ops)
	}
}
