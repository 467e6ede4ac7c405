package cpu

import (
	"strings"
	"testing"

	"cenju4/internal/cache"
	"cenju4/internal/core"
	"cenju4/internal/network"
	"cenju4/internal/sim"
	"cenju4/internal/topology"
)

// Differential tests for OpRun. Each case runs a two-node program pair
// twice: as written, and with every OpRun expanded into the element ops
// it stands for (expand). Node 0 runs the case's runs; node 1, when it
// has a program, competes for the same blocks. Everything observable
// must match on both nodes: CPU and cache counters, the final clock,
// and the final state of every touched block. Each case runs under
// every quantum in runQuanta: the default, values that expire mid-run
// (between an element's compute and its store among them), and 1.

// runQuanta are the quanta every case runs under (0: the default).
var runQuanta = []sim.Time{0, 1, 50, 333, 1000, 2500}

// expand returns ops with every OpRun replaced by its element ops, in
// the order OpRun documents.
func expand(ops []Op) []Op {
	var out []Op
	for _, op := range ops {
		if op.Kind != OpRun {
			out = append(out, op)
			continue
		}
		since := int(op.StorePhase)
		for k := 0; k < int(op.Count); k++ {
			off := topology.Addr(8 * k)
			store := false
			if op.StoreEvery > 0 {
				if since++; since == int(op.StoreEvery) {
					since, store = 0, true
				}
			}
			if op.Body == RunWrapPaired {
				out = append(out, ld(op.Pair+off))
			}
			out = append(out, ld(op.Addr+off))
			if op.N > 0 && !(op.Body != RunStream && store) {
				out = append(out, Op{Kind: OpCompute, N: op.N})
			}
			if store {
				out = append(out, st(op.Addr+off))
			}
		}
	}
	return out
}

// runCase is one differential case: node 0's program, node 1's
// (optional), a cache seeding for node 0 and the cache geometry.
type runCase struct {
	ops, other []Op
	seed       func(*cache.Cache)
	geom       cache.Config
}

type runResult struct {
	stats    [2]Stats
	cache    [2]cache.Stats
	now      sim.Time
	states   []cache.LineState
	midStore bool // node 0 was seen paused between a compute and its store
}

func (rc runCase) run(t *testing.T, quantum sim.Time, expanded bool) runResult {
	t.Helper()
	eng := sim.NewEngine()
	net := network.New(eng, network.Config{Nodes: 2, Multicast: true})
	var ctrls [2]*core.Controller
	var cpus [2]*CPU
	for n := range ctrls {
		ctrls[n] = core.New(eng, net, core.Config{Node: topology.NodeID(n), Nodes: 2, Cache: rc.geom})
		net.Attach(topology.NodeID(n), ctrls[n].Deliver)
		cpus[n] = New(eng, ctrls[n], &nullSync{}, Config{Node: topology.NodeID(n), Quantum: quantum})
	}
	if rc.seed != nil {
		rc.seed(ctrls[0].Cache())
	}
	progs := [2][]Op{rc.ops, rc.other}
	var r runResult
	done := 0
	for n, ops := range progs {
		if expanded {
			ops = expand(ops)
		}
		if n == 0 || len(ops) > 0 {
			cpus[n].Run(&SliceProgram{Ops: ops}, func() { done++ })
		} else {
			done++
		}
	}
	for eng.Step() {
		r.midStore = r.midStore || cpus[0].pausedBeforeStore()
	}
	if done != 2 {
		t.Fatal("a program did not finish")
	}
	r.now = eng.Now()
	for n := range cpus {
		r.stats[n], r.cache[n] = cpus[n].Stats(), ctrls[n].Cache().Stats()
	}
	for _, ops := range progs {
		for _, op := range expand(ops) {
			if op.Kind == OpLoad || op.Kind == OpStore {
				r.states = append(r.states, ctrls[0].Cache().State(op.Addr), ctrls[1].Cache().State(op.Addr))
			}
		}
	}
	return r
}

// pausedBeforeStore reports whether the CPU sits inside an OpRun
// between an element's compute and its store.
func (c *CPU) pausedBeforeStore() bool {
	if c.runPos != runStore || c.opPos == c.opLen {
		return false
	}
	op := c.ops[c.opPos]
	return op.Kind == OpRun && op.StoreEvery > 0 && (int(op.StorePhase)+int(c.runElem)+1)%int(op.StoreEvery) == 0
}

// check runs rc as written and expanded under every quantum, compares
// them, and returns whether node 0 ever paused between a run element's
// compute and its store.
func (rc runCase) check(t *testing.T) (midStore bool) {
	t.Helper()
	for _, q := range runQuanta {
		got, want := rc.run(t, q, false), rc.run(t, q, true)
		midStore = midStore || got.midStore
		for n := range got.stats {
			if got.stats[n] != want.stats[n] {
				t.Errorf("quantum %v: node %d cpu stats\n got %+v\nwant %+v", q, n, got.stats[n], want.stats[n])
			}
			if got.cache[n] != want.cache[n] {
				t.Errorf("quantum %v: node %d cache stats got %+v, want %+v", q, n, got.cache[n], want.cache[n])
			}
		}
		if got.now != want.now {
			t.Errorf("quantum %v: finished at %v, want %v", q, got.now, want.now)
		}
		for i := range got.states {
			if got.states[i] != want.states[i] {
				t.Errorf("quantum %v: access %d node %d: final block state %v, want %v", q, i/2, i%2, got.states[i], want.states[i])
			}
		}
		if got.cache[0].Hits == 0 {
			t.Errorf("quantum %v: node 0 never hit: the case does not exercise runs", q)
		}
	}
	return midStore
}

// setStride is the address distance between consecutive blocks of one
// cache set (default geometry: 1 MB, 2 ways).
const setStride = topology.Addr((1 << 20) / 2)

func ld(a topology.Addr) Op { return Op{Kind: OpLoad, Addr: a} }
func st(a topology.Addr) Op { return Op{Kind: OpStore, Addr: a} }

// word returns the address of the k-th element of a block.
func word(block topology.Addr, k int) topology.Addr { return block + topology.Addr(8*k) }

// runOf builds an OpRun over count elements from addr.
func runOf(body RunBody, addr topology.Addr, count int, compute uint64, every, phase int) Op {
	return Op{Kind: OpRun, Body: body, Addr: addr, Count: uint8(count), N: compute,
		StoreEvery: uint8(every), StorePhase: uint8(phase)}
}

// paired builds a RunWrapPaired run with its pair at pair.
func paired(addr, pair topology.Addr, count int, compute uint64, every, phase int) Op {
	op := runOf(RunWrapPaired, addr, count, compute, every, phase)
	op.Pair = pair
	return op
}

func TestRunStoreToSharedLine(t *testing.T) {
	s := topology.SharedAddr(1, 0x800)
	seed := func(c *cache.Cache) { c.Insert(s, cache.Shared) }
	for _, body := range []RunBody{RunStream, RunWrap} {
		// The loads hit the seeded Shared copy; the first store is an
		// upgrade miss, and the accesses after it hit the owned line.
		runCase{seed: seed, ops: []Op{runOf(body, s, 16, 30, 2, 0)}}.check(t)
	}
}

func TestRunExclusiveUpgrade(t *testing.T) {
	e := topology.PrivateAddr(0x4000)
	m := topology.PrivateAddr(0x8000)
	s := topology.SharedAddr(0, 0x1800) // local and uncached: its load miss fills E
	seed := func(c *cache.Cache) {
		c.Insert(e, cache.Exclusive)
		c.Insert(m, cache.Modified)
	}
	for _, body := range []RunBody{RunStream, RunWrap} {
		// The first store to an E line goes through Access once (E -> M);
		// stores to an M line hit from the start.
		runCase{seed: seed, ops: []Op{
			runOf(body, e, 16, 30, 3, 0),
			runOf(body, m, 16, 30, 1, 0),
			runOf(body, s, 16, 30, 2, 1),
		}}.check(t)
	}
}

func TestRunStoreEveryAndCompute(t *testing.T) {
	p := topology.PrivateAddr(0x10000)
	s := topology.SharedAddr(0, 0x1000)
	for _, every := range []int{0, 1, 2} {
		for _, compute := range []uint64{0, 7, 900} {
			for _, body := range []RunBody{RunStream, RunWrap} {
				runCase{ops: []Op{
					runOf(body, p, 16, compute, every, 0),
					runOf(body, s, 16, compute, every, 0),
					runOf(body, p+topology.BlockSize, 16, compute, every, 0),
				}}.check(t)
			}
		}
	}
}

func TestRunMidBlockAndStorePhase(t *testing.T) {
	p := topology.PrivateAddr(0x20000)
	s := topology.SharedAddr(1, 0x2000)
	runCase{ops: []Op{
		runOf(RunStream, word(p, 5), 11, 40, 3, 2),
		runOf(RunWrap, word(s, 9), 7, 40, 2, 1),
		paired(word(s+topology.BlockSize, 3), word(p+topology.BlockSize, 6), 10, 40, 2, 1),
	}}.check(t)
}

func TestRunQuantumBetweenComputeAndStore(t *testing.T) {
	p := topology.PrivateAddr(0x24000)
	if !(runCase{ops: []Op{runOf(RunStream, p, 16, 150, 2, 0)}}.check(t)) {
		t.Error("no quantum paused the run between a compute and its store")
	}
}

func TestRunPairSameSet(t *testing.T) {
	main := topology.SharedAddr(0, 0x30000)
	pair := topology.PrivateAddr(0x30000) // same set as main
	priv := topology.PrivateAddr(0x30000 + uint64(setStride))
	runCase{ops: []Op{
		paired(main, pair, 16, 4, 0, 0),
		paired(word(main, 0), word(pair, 0), 16, 40, 2, 0),
		paired(priv, pair, 16, 300, 3, 1), // both private, same set
	}}.check(t)
}

func TestRunPairMissEvictsMain(t *testing.T) {
	main := topology.SharedAddr(1, 0x40000)
	x := topology.PrivateAddr(0x40000 + uint64(setStride))
	pair := topology.PrivateAddr(0x40000) // same set as main and x
	runCase{ops: []Op{
		ld(main), ld(x), // main is the set's LRU way
		paired(main, pair, 16, 40, 2, 0), // the pair's miss evicts main
		ld(word(x, 1)),
	}}.check(t)
}

func TestRunOneWayCache(t *testing.T) {
	// Every block of the cache shares one set: the pair and main blocks
	// evict each other on every element.
	geom := cache.Config{SizeBytes: topology.BlockSize, Ways: 1}
	main := topology.PrivateAddr(0x50000)
	pair := topology.PrivateAddr(0x60000)
	s := topology.SharedAddr(0, 0x5000)
	runCase{geom: geom, ops: []Op{
		paired(main, pair, 16, 40, 2, 0),
		paired(s, pair, 16, 40, 0, 0),
		runOf(RunStream, main, 16, 40, 2, 0),
	}}.check(t)
}

func TestRunResumeSeesRemoteStore(t *testing.T) {
	// Node 1 stores to the block node 0 is streaming over, in the middle
	// of node 0's run: the resumed run must miss, not hit from what an
	// earlier step knew.
	for _, home := range []topology.NodeID{0, 1} {
		s := topology.SharedAddr(home, 0x6000)
		for _, delay := range []uint64{300, 700, 1300, 2100} {
			runCase{
				ops: []Op{
					runOf(RunStream, s, 16, 100, 2, 0),
					runOf(RunWrap, s, 16, 100, 2, 1),
				},
				other: []Op{{Kind: OpCompute, N: delay}, st(word(s, 3)), {Kind: OpCompute, N: delay}, ld(word(s, 9))},
			}.check(t)
		}
	}
}

func TestRunRandomMix(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		x := seed
		next := func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x
		}
		// Blocks in two sets, private and shared at both homes.
		var blocks, privs []topology.Addr
		for set := topology.Addr(0); set < 2; set++ {
			base := set * topology.BlockSize
			for way := topology.Addr(0); way < 2; way++ {
				off := uint64(base + way*setStride)
				privs = append(privs, topology.PrivateAddr(off))
				blocks = append(blocks, topology.PrivateAddr(off),
					topology.SharedAddr(0, off), topology.SharedAddr(1, off))
			}
		}
		var ops, other []Op
		for i := 0; i < 120; i++ {
			r := next()
			b := blocks[r%uint64(len(blocks))]
			first := int(r >> 8 % 16)
			count := 1 + int(r>>12%uint64(16-first))
			every, phase := int(r>>20%3), 0
			if every > 0 {
				phase = int(r >> 22 % uint64(every))
			}
			compute := r >> 24 % 400
			switch r >> 34 % 8 {
			case 0:
				ops = append(ops, Op{Kind: OpCompute, N: r >> 40 % 3000})
			case 1:
				ops = append(ops, st(word(b, first)))
			case 2:
				ops = append(ops, runOf(RunStream, word(b, first), count, compute, every, phase))
			case 3:
				ops = append(ops, runOf(RunWrap, word(b, first), count, compute, every, phase))
			default:
				pair := privs[r>>44%uint64(len(privs))]
				if pair == b {
					pair = privs[(r>>44+1)%uint64(len(privs))]
				}
				ops = append(ops, paired(word(b, first), word(pair, 16-count), count, compute, every, phase))
			}
			if r>>50%4 == 0 {
				other = append(other, Op{Kind: OpCompute, N: r >> 52 % 500})
				if b.Shared() {
					other = append(other, st(word(b, first)))
				}
			}
		}
		runCase{ops: ops, other: other}.check(t)
	}
}

func TestRunWithValueTrackerPanics(t *testing.T) {
	c, eng, _ := newCPU(t)
	c.ctrl.SetValueTracker(core.NewValueTracker(nil))
	c.Run(&SliceProgram{Ops: []Op{runOf(RunStream, topology.PrivateAddr(0), 16, 1, 0, 0)}}, func() {})
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "value tracker") {
			t.Fatalf("recovered %v, want the value-tracker panic", r)
		}
	}()
	eng.Run()
}
