package core

import (
	"math/rand"
	"testing"

	"cenju4/internal/cache"
	"cenju4/internal/directory"
	"cenju4/internal/sim"
	"cenju4/internal/topology"
)

// The Figure 8(b) race: the home forwards a request to a slave whose
// modified copy is already on its way back as a writeback. The in-order
// network guarantees the writeback reaches the home before the slave's
// empty-handed acknowledgement, so the reply is served from (now valid)
// memory — no nack, no data loss.
func TestWritebackRacesForwardedRequest(t *testing.T) {
	cl := newCluster(t, 16, true)
	a := blockAt(0, 1)
	cl.access(t, 1, a, true) // node 1 holds M

	completed := false
	// Node 2's load will be forwarded to node 1.
	cl.ctrls[2].Request(a, false, func() { completed = true })
	// While the forward is in flight, node 1 evicts the block.
	cl.eng.After(600, func() {
		cl.ctrls[1].Cache().SetState(a, cache.Invalid)
		cl.ctrls[1].EvictShared(a)
	})
	cl.eng.Run()
	if !completed {
		t.Fatal("racing load never completed")
	}
	if st := cl.ctrls[2].Cache().State(a); st != cache.Shared {
		t.Fatalf("reader state = %v, want S", st)
	}
	e := cl.ctrls[0].Memory().Entry(a)
	if e.State() != directory.Clean {
		t.Fatalf("directory = %v, want clean", *e)
	}
	if cl.ctrls[0].Stats().HomeForwards != 1 {
		t.Fatalf("forwards = %d, want 1 (the race requires a forward)", cl.ctrls[0].Stats().HomeForwards)
	}
}

// The same race against a read-exclusive request.
func TestWritebackRacesReadExclusive(t *testing.T) {
	cl := newCluster(t, 16, true)
	a := blockAt(0, 1)
	cl.access(t, 1, a, true)

	completed := false
	cl.ctrls[3].Request(a, true, func() { completed = true })
	cl.eng.After(600, func() {
		cl.ctrls[1].Cache().SetState(a, cache.Invalid)
		cl.ctrls[1].EvictShared(a)
	})
	cl.eng.Run()
	if !completed {
		t.Fatal("racing store never completed")
	}
	if st := cl.ctrls[3].Cache().State(a); st != cache.Modified {
		t.Fatalf("writer state = %v, want M", st)
	}
	e := cl.ctrls[0].Memory().Entry(a)
	if e.State() != directory.Dirty || !e.Dest().IsOnly(3) {
		t.Fatalf("directory = %v, want dirty {3}", *e)
	}
}

// An ownership request whose shared copy is invalidated while the
// request is in flight: the home queues it against the pending
// invalidation and converts it to read-exclusive, so the requester ends
// up with a valid modified line.
func TestOwnershipConvertsToReadExclusiveWhenQueued(t *testing.T) {
	cl := newCluster(t, 16, true)
	a := blockAt(0, 1)
	// Nodes 1 and 2 share the block.
	cl.access(t, 1, a, false)
	cl.access(t, 2, a, false)
	// Both store "simultaneously": both send ownership; one is queued
	// behind the other's invalidation and must be converted.
	done1, done2 := false, false
	cl.ctrls[1].Request(a, true, func() { done1 = true })
	cl.ctrls[2].Request(a, true, func() { done2 = true })
	cl.eng.Run()
	if !done1 || !done2 {
		t.Fatalf("stores completed: %v %v", done1, done2)
	}
	// Exactly one final owner, and it must hold a valid Modified line.
	owners := 0
	for _, ctrl := range cl.ctrls {
		if ctrl.Cache().State(a) == cache.Modified {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("%d owners", owners)
	}
	if cl.ctrls[0].Stats().QueuedRequests == 0 {
		t.Fatal("no request was queued — race not exercised")
	}
}

// Head-of-line queue blocking across blocks: a queued request for block
// B must wait for the queue head (targeting block A) even after B's own
// transaction completes — FIFO service, the paper's fairness guarantee.
func TestQueueHeadOfLineAcrossBlocks(t *testing.T) {
	cl := newCluster(t, 16, true)
	a, b := blockAt(0, 1), blockAt(0, 2)
	// Make both blocks dirty at remote nodes so requests pend.
	cl.access(t, 1, a, true)
	cl.access(t, 2, b, true)
	var order []string
	// Two requests to A (the second queues), then one to B while A's
	// transactions hold the queue.
	cl.ctrls[3].Request(a, true, func() { order = append(order, "a3") })
	cl.ctrls[4].Request(a, true, func() { order = append(order, "a4") })
	cl.ctrls[5].Request(b, true, func() { order = append(order, "b5") })
	cl.eng.Run()
	if len(order) != 3 {
		t.Fatalf("completions = %v", order)
	}
	// a3 must finish before a4 (FIFO on the same block).
	ia3, ia4 := indexOf(order, "a3"), indexOf(order, "a4")
	if ia3 > ia4 {
		t.Fatalf("same-block FIFO violated: %v", order)
	}
}

func indexOf(s []string, v string) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

// Randomized 1024-node traffic exercises the bit-pattern superset
// paths: invalidations reach decoded non-sharers, which must simply
// acknowledge. Invariants checked at every completion.
func TestRandomTrafficLargeMachine(t *testing.T) {
	cl := newCluster(t, 1024, true)
	blocks := []topology.Addr{blockAt(0, 1), blockAt(511, 2), blockAt(1023, 3)}
	rng := rand.New(rand.NewSource(99))
	issued, completed := 0, 0
	var kick func()
	kick = func() {
		completed++
		checkSingleWriter(t, cl, blocks)
		if issued >= 300 {
			return
		}
		issued++
		node := topology.NodeID(rng.Intn(1024))
		cl.ctrls[node].Request(blocks[rng.Intn(3)], rng.Intn(3) == 0, func() { kick() })
	}
	for i := 0; i < 6; i++ {
		issued++
		node := topology.NodeID(rng.Intn(1024))
		cl.ctrls[node].Request(blocks[rng.Intn(3)], true, func() { kick() })
	}
	cl.eng.Run()
	if completed != issued {
		t.Fatalf("completed %d of %d", completed, issued)
	}
	// At least one directory entry should have exercised bit-pattern
	// form during the run (many sharers on a read-heavy block).
}

// Ownership completion after the line was silently evicted: the master
// re-allocates the line Modified (possibly writing back a victim).
func TestHomeAckAfterSilentEviction(t *testing.T) {
	cl := newCluster(t, 16, true, withCache(cache.Config{SizeBytes: 2 * topology.BlockSize, Ways: 1}))
	a := blockAt(0, 1)
	cl.access(t, 1, a, false) // E at node 1
	cl.access(t, 2, a, false) // S at 1 and 2
	// Node 2 stores; while the ownership request is in flight, its S
	// copy is displaced by another block mapping to the same set.
	done := false
	cl.ctrls[2].Request(a, true, func() { done = true })
	cl.eng.After(100, func() {
		cl.ctrls[2].Cache().Insert(blockAt(0, 1+8192), cache.Exclusive) // same set as a
	})
	cl.eng.Run()
	if !done {
		t.Fatal("store never completed")
	}
	if st := cl.ctrls[2].Cache().State(a); st != cache.Modified {
		t.Fatalf("state after re-allocation = %v, want M", st)
	}
}

// The writeback "no-reply" sequence must leave no pending context and
// no reserved bit behind, even under a burst of writebacks to the same
// home.
func TestWritebackBurst(t *testing.T) {
	cl := newCluster(t, 16, true, withCache(cache.Config{SizeBytes: topology.BlockSize, Ways: 1}))
	// Node 1 dirties many blocks homed at 0; the one-line cache forces a
	// writeback on every new block.
	var last sim.Time
	for i := 0; i < 20; i++ {
		cl.access(t, 1, blockAt(0, uint64(1+i)), true)
		last = cl.eng.Now()
	}
	cl.eng.Run()
	_ = last
	// 19 writebacks (each new block evicts the previous modified one).
	if wb := cl.ctrls[1].Stats().Writebacks; wb != 19 {
		t.Fatalf("writebacks = %d, want 19", wb)
	}
	for i := 0; i < 19; i++ {
		e := cl.ctrls[0].Memory().Entry(blockAt(0, uint64(1+i)))
		if e.State() != directory.Clean || e.Dest().Count() != 0 || e.Reserved() {
			t.Fatalf("block %d directory = %v after writeback", i, *e)
		}
	}
}
