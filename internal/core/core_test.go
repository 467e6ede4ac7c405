package core

import (
	"testing"

	"cenju4/internal/cache"
	"cenju4/internal/directory"
	"cenju4/internal/msg"
	"cenju4/internal/network"
	"cenju4/internal/sim"
	"cenju4/internal/topology"
)

// cluster wires N controllers over a real multistage network.
type cluster struct {
	eng   *sim.Engine
	net   *network.Network
	ctrls []*Controller
}

type clusterOpt func(*Config)

func withMode(m Mode) clusterOpt { return func(c *Config) { c.Mode = m } }
func withCache(cc cache.Config) clusterOpt {
	return func(c *Config) { c.Cache = cc }
}

func newCluster(t testing.TB, nodes int, multicast bool, opts ...clusterOpt) *cluster {
	t.Helper()
	cl := &cluster{eng: sim.NewEngine()}
	cl.net = network.New(cl.eng, network.Config{Nodes: nodes, Multicast: multicast})
	cl.ctrls = make([]*Controller, nodes)
	for i := 0; i < nodes; i++ {
		cfg := Config{Node: topology.NodeID(i), Nodes: nodes}
		for _, o := range opts {
			o(&cfg)
		}
		cl.ctrls[i] = New(cl.eng, cl.net, cfg)
		cl.net.Attach(topology.NodeID(i), cl.ctrls[i].Deliver)
	}
	return cl
}

// access runs one access to completion and returns its latency.
func (cl *cluster) access(t testing.TB, node topology.NodeID, addr topology.Addr, store bool) sim.Time {
	t.Helper()
	start := cl.eng.Now()
	var end sim.Time
	done := false
	cl.ctrls[node].Request(addr, store, func() {
		done = true
		end = cl.eng.Now()
	})
	cl.eng.Run()
	if !done {
		t.Fatalf("access %v by %v never completed", addr, node)
	}
	return end - start
}

func blockAt(home topology.NodeID, idx uint64) topology.Addr {
	return topology.SharedAddr(home, idx*topology.BlockSize)
}

func TestColdLoadGrantsExclusive(t *testing.T) {
	cl := newCluster(t, 16, true)
	a := blockAt(0, 1)
	cl.access(t, 0, a, false)
	if st := cl.ctrls[0].Cache().State(a); st != cache.Exclusive {
		t.Fatalf("cache state = %v, want E", st)
	}
	e := cl.ctrls[0].Memory().Entry(a)
	if e.State() != directory.Dirty || !e.Dest().IsOnly(0) {
		t.Fatalf("directory = %v, want dirty {0}", *e)
	}
}

func TestSecondReaderSharesViaOwnerDowngrade(t *testing.T) {
	cl := newCluster(t, 16, true)
	a := blockAt(0, 1)
	cl.access(t, 1, a, false) // node 1: E
	cl.access(t, 2, a, false) // node 2: forwarded to node 1, both S
	if st := cl.ctrls[1].Cache().State(a); st != cache.Shared {
		t.Fatalf("former owner state = %v, want S", st)
	}
	if st := cl.ctrls[2].Cache().State(a); st != cache.Shared {
		t.Fatalf("new reader state = %v, want S", st)
	}
	e := cl.ctrls[0].Memory().Entry(a)
	if e.State() != directory.Clean || !e.Dest().Contains(1) || !e.Dest().Contains(2) {
		t.Fatalf("directory = %v, want clean {1,2}", *e)
	}
}

func TestStoreToSharedInvalidatesOthers(t *testing.T) {
	cl := newCluster(t, 16, true)
	a := blockAt(0, 1)
	for _, n := range []topology.NodeID{1, 2, 3} {
		cl.access(t, n, a, false)
	}
	cl.access(t, 2, a, true) // ownership
	if st := cl.ctrls[2].Cache().State(a); st != cache.Modified {
		t.Fatalf("writer state = %v, want M", st)
	}
	for _, n := range []topology.NodeID{1, 3} {
		if st := cl.ctrls[n].Cache().State(a); st != cache.Invalid {
			t.Fatalf("node %v state = %v, want I", n, st)
		}
	}
	e := cl.ctrls[0].Memory().Entry(a)
	if e.State() != directory.Dirty || !e.Dest().IsOnly(2) {
		t.Fatalf("directory = %v, want dirty {2}", *e)
	}
}

func TestStoreMissStealsDirtyBlock(t *testing.T) {
	cl := newCluster(t, 16, true)
	a := blockAt(0, 1)
	cl.access(t, 1, a, true) // node 1: M
	cl.access(t, 3, a, true) // node 3 steals
	if st := cl.ctrls[1].Cache().State(a); st != cache.Invalid {
		t.Fatalf("old owner = %v, want I", st)
	}
	if st := cl.ctrls[3].Cache().State(a); st != cache.Modified {
		t.Fatalf("new owner = %v, want M", st)
	}
}

func TestLoadOfDirtyRemoteBlock(t *testing.T) {
	cl := newCluster(t, 16, true)
	a := blockAt(0, 1)
	cl.access(t, 1, a, true)  // dirty at 1
	cl.access(t, 2, a, false) // read: 1 downgrades to S, memory updated
	if st := cl.ctrls[1].Cache().State(a); st != cache.Shared {
		t.Fatalf("owner after read = %v, want S", st)
	}
	if st := cl.ctrls[2].Cache().State(a); st != cache.Shared {
		t.Fatalf("reader = %v, want S", st)
	}
	e := cl.ctrls[0].Memory().Entry(a)
	if e.State() != directory.Clean {
		t.Fatalf("directory state = %v, want C", e.State())
	}
}

func TestSilentExclusiveToModified(t *testing.T) {
	cl := newCluster(t, 16, true)
	a := blockAt(0, 1)
	cl.access(t, 1, a, false) // E
	lat := cl.access(t, 1, a, true)
	if lat != 0 {
		t.Fatalf("silent E->M upgrade cost %v, want 0 protocol latency", lat)
	}
	if st := cl.ctrls[1].Cache().State(a); st != cache.Modified {
		t.Fatalf("state = %v, want M", st)
	}
}

func TestWritebackOnEviction(t *testing.T) {
	// One-set cache: the second block evicts the first.
	cl := newCluster(t, 16, true, withCache(cache.Config{SizeBytes: topology.BlockSize, Ways: 1}))
	a := blockAt(0, 1)
	b := blockAt(0, 1+4096)  // same set
	cl.access(t, 1, a, true) // M at node 1
	cl.access(t, 1, b, false)
	cl.eng.Run()
	e := cl.ctrls[0].Memory().Entry(a)
	if e.State() != directory.Clean || e.Dest().Count() != 0 {
		t.Fatalf("directory after writeback = %v, want clean empty", *e)
	}
	if cl.ctrls[1].Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", cl.ctrls[1].Stats().Writebacks)
	}
}

func TestReadAfterWritebackServedFromMemory(t *testing.T) {
	cl := newCluster(t, 16, true, withCache(cache.Config{SizeBytes: topology.BlockSize, Ways: 1}))
	a := blockAt(0, 1)
	cl.access(t, 1, a, true)                   // M at node 1
	cl.access(t, 1, blockAt(0, 1+4096), false) // evict -> writeback
	cl.access(t, 2, a, false)                  // memory is clean: direct grant
	if st := cl.ctrls[2].Cache().State(a); st != cache.Exclusive {
		t.Fatalf("reader state = %v, want E (sole copy after writeback)", st)
	}
}

// Five sharers force the directory into bit-pattern form; the
// invalidation multicast must still reach every true sharer.
func TestInvalidationAcrossFormatSwitch(t *testing.T) {
	cl := newCluster(t, 1024, true)
	a := blockAt(0, 1)
	sharers := []topology.NodeID{1, 4, 5, 32, 164}
	for _, n := range sharers {
		cl.access(t, n, a, false)
	}
	e := cl.ctrls[0].Memory().Entry(a)
	if !e.Dest().IsPattern() {
		t.Fatal("directory did not switch to bit-pattern")
	}
	cl.access(t, 7, a, true) // read-exclusive from an unrelated node
	for _, n := range sharers {
		if st := cl.ctrls[n].Cache().State(a); st != cache.Invalid {
			t.Fatalf("sharer %v = %v after invalidation, want I", n, st)
		}
	}
	if st := cl.ctrls[7].Cache().State(a); st != cache.Modified {
		t.Fatalf("writer = %v, want M", st)
	}
	if e.State() != directory.Dirty || !e.Dest().IsOnly(7) {
		t.Fatalf("directory = %v, want dirty {7}", *e)
	}
}

// The same scenario with multicast disabled must be functionally
// identical (only slower).
func TestInvalidationSinglecastMode(t *testing.T) {
	cl := newCluster(t, 1024, false)
	a := blockAt(0, 1)
	sharers := []topology.NodeID{1, 4, 5, 32, 164}
	for _, n := range sharers {
		cl.access(t, n, a, false)
	}
	cl.access(t, 7, a, true)
	for _, n := range sharers {
		if st := cl.ctrls[n].Cache().State(a); st != cache.Invalid {
			t.Fatalf("sharer %v = %v, want I", n, st)
		}
	}
	if st := cl.ctrls[7].Cache().State(a); st != cache.Modified {
		t.Fatalf("writer = %v, want M", st)
	}
}

func TestOwnershipWithSoleSharerNoDataTransfer(t *testing.T) {
	cl := newCluster(t, 16, true)
	a := blockAt(0, 1)
	cl.access(t, 1, a, false) // E at 1
	cl.access(t, 2, a, false) // S at 1,2
	// Invalidate node 1's copy by a store from 2 requires ownership.
	// First make 2 the sole sharer: store from 2.
	cl.access(t, 2, a, true)
	if st := cl.ctrls[2].Cache().State(a); st != cache.Modified {
		t.Fatalf("state = %v, want M", st)
	}
}

// Concurrent stores to one block from many nodes: the queuing protocol
// completes all with zero nacks.
func TestHotBlockQueuingCompletesAll(t *testing.T) {
	const n = 32
	cl := newCluster(t, n, true)
	a := blockAt(0, 1)
	completed := 0
	for i := 0; i < n; i++ {
		cl.ctrls[i].Request(a, true, func() { completed++ })
	}
	cl.eng.Run()
	if completed != n {
		t.Fatalf("completed %d/%d stores", completed, n)
	}
	for i := 0; i < n; i++ {
		if cl.ctrls[i].Stats().Nacks != 0 {
			t.Fatalf("node %d saw nacks under queuing protocol", i)
		}
	}
	// Exactly one final owner.
	owners := 0
	for i := 0; i < n; i++ {
		if cl.ctrls[i].Cache().State(a) == cache.Modified {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("%d modified copies after the dust settles", owners)
	}
	e := cl.ctrls[0].Memory().Entry(a)
	if e.Reserved() {
		t.Fatal("reservation bit left set")
	}
	if st := cl.ctrls[0].Stats(); st.QueuedRequests == 0 {
		t.Fatal("no requests were queued despite contention")
	}
}

// The same hot-block storm under the nack protocol: everything still
// completes (retries make progress here) but nacks and retries occur.
func TestHotBlockNackModeRetries(t *testing.T) {
	const n = 32
	cl := newCluster(t, n, true, withMode(ModeNack))
	a := blockAt(0, 1)
	completed := 0
	for i := 0; i < n; i++ {
		cl.ctrls[i].Request(a, true, func() { completed++ })
	}
	cl.eng.Run()
	if completed != n {
		t.Fatalf("completed %d/%d stores", completed, n)
	}
	var nacks uint64
	for i := 0; i < n; i++ {
		nacks += cl.ctrls[i].Stats().Nacks
	}
	if nacks == 0 {
		t.Fatal("nack protocol saw no nacks under contention")
	}
}

// Mixed random traffic must preserve the single-writer invariant at
// every completion point and leave a coherent final state.
func TestSingleWriterInvariant(t *testing.T) {
	const n = 16
	cl := newCluster(t, n, true)
	blocks := []topology.Addr{blockAt(0, 1), blockAt(3, 2), blockAt(7, 9)}
	// Issue a deterministic pseudo-random access pattern.
	seed := uint64(12345)
	next := func(mod int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % mod
	}
	issued := 0
	var kick func(node int)
	kick = func(node int) {
		if issued >= 400 {
			return
		}
		issued++
		a := blocks[next(len(blocks))]
		store := next(2) == 0
		cl.ctrls[node].Request(a, store, func() {
			checkSingleWriter(t, cl, blocks)
			kick(next(n))
		})
	}
	for i := 0; i < 8; i++ {
		kick(next(n))
	}
	cl.eng.Run()
	if issued < 400 {
		t.Fatalf("only %d accesses issued — livelock?", issued)
	}
}

func checkSingleWriter(t *testing.T, cl *cluster, blocks []topology.Addr) {
	t.Helper()
	for _, a := range blocks {
		writers, sharers := 0, 0
		for _, c := range cl.ctrls {
			switch c.Cache().State(a) {
			case cache.Modified, cache.Exclusive:
				writers++
			case cache.Shared:
				sharers++
			}
		}
		if writers > 1 || (writers == 1 && sharers > 0) {
			t.Fatalf("block %v: %d exclusive owners, %d sharers", a, writers, sharers)
		}
	}
}

// FIFO fairness: queued requests are granted in arrival order.
func TestQueuedRequestsServedInOrder(t *testing.T) {
	const n = 8
	cl := newCluster(t, n, true)
	a := blockAt(0, 1)
	var order []topology.NodeID
	for i := 1; i < n; i++ {
		node := topology.NodeID(i)
		cl.ctrls[node].Request(a, true, func() { order = append(order, node) })
	}
	cl.eng.Run()
	if len(order) != n-1 {
		t.Fatalf("%d completions, want %d", len(order), n-1)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("completion order %v not FIFO", order)
		}
	}
}

func TestBufferBoundsRespected(t *testing.T) {
	const n = 32
	cl := newCluster(t, n, true)
	// Hammer one home with stores to distinct hot blocks from all nodes.
	for round := 0; round < 4; round++ {
		for i := 0; i < n; i++ {
			for b := 0; b < 2; b++ {
				cl.ctrls[i].Request(blockAt(0, uint64(b)), true, func() {})
			}
		}
		cl.eng.Run()
	}
	st := cl.ctrls[0].Stats()
	cap := n * topology.MaxOutstanding
	if st.QueueHighWater > cap {
		t.Fatalf("request queue high water %d exceeds bound %d", st.QueueHighWater, cap)
	}
	if st.HomeOverflowHW > cap {
		t.Fatalf("home overflow high water %d exceeds bound %d", st.HomeOverflowHW, cap)
	}
	for i := 0; i < n; i++ {
		if hw := cl.ctrls[i].Stats().SlaveOverflowHW; hw > cap {
			t.Fatalf("slave overflow high water %d exceeds bound %d", hw, cap)
		}
	}
}

func TestRequestOnPrivateAddressPanics(t *testing.T) {
	cl := newCluster(t, 16, true)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	cl.ctrls[0].Request(topology.PrivateAddr(0), false, func() {})
}

// Table 2 calibration: simulated latencies must be within 5% of the
// paper's measured values (the residuals are recorded in EXPERIMENTS.md).
func TestTable2Calibration(t *testing.T) {
	paper := map[string][3]sim.Time{
		"b": {610, 610, 610},
		"c": {1690, 2210, 2730},
		"d": {1900, 2480, 3060},
		"e": {3120, 4170, 5220},
	}
	sizes := []int{16, 128, 1024}
	for si, nodes := range sizes {
		// b) shared local clean.
		cl := newCluster(t, nodes, true)
		latB := cl.access(t, 0, blockAt(0, 1), false)
		// c) shared remote clean.
		cl = newCluster(t, nodes, true)
		latC := cl.access(t, 1, blockAt(0, 1), false)
		// d) shared local dirty: dirty at node 1, load by home node 0.
		cl = newCluster(t, nodes, true)
		cl.access(t, 1, blockAt(0, 1), true)
		latD := cl.access(t, 0, blockAt(0, 1), false)
		// e) shared remote dirty: dirty at 1, load by node 2.
		cl = newCluster(t, nodes, true)
		cl.access(t, 1, blockAt(0, 1), true)
		latE := cl.access(t, 2, blockAt(0, 1), false)

		for row, lat := range map[string]sim.Time{"b": latB, "c": latC, "d": latD, "e": latE} {
			want := paper[row][si]
			diff := float64(lat) - float64(want)
			if diff < 0 {
				diff = -diff
			}
			if diff/float64(want) > 0.05 {
				t.Errorf("row %s, %d nodes: latency %v, paper %v (%.1f%% off)",
					row, nodes, lat, want, 100*diff/float64(want))
			}
		}
	}
}

// BenchmarkHotBlockStores times the home's handlers in steady state:
// one op is a burst of stores to one block from every node of a 32-node
// cluster, which the home serializes through its request queue. The
// cluster, wired with a message pool as machine.Machine wires it, is
// built and warmed once, outside the timing; after the first burst the
// previous burst's last writer holds the block, so every op repeats the
// same shape.
func BenchmarkHotBlockStores(b *testing.B) {
	const nodes = 32
	pool := &msg.Pool{}
	eng := sim.NewEngine()
	net := network.New(eng, network.Config{Nodes: nodes, Multicast: true, Pool: pool})
	ctrls := make([]*Controller, nodes)
	for i := range ctrls {
		ctrls[i] = New(eng, net, Config{Node: topology.NodeID(i), Nodes: nodes, Pool: pool})
		net.Attach(topology.NodeID(i), ctrls[i].Deliver)
	}
	a := blockAt(0, 1)
	burst := func() {
		for _, c := range ctrls {
			c.Request(a, true, func() {})
		}
		eng.Run()
	}
	burst()
	burst()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst()
	}
}
