// Package mpi models Cenju-4's user-level message passing mechanism and
// the MPI-style library both program families use: the mpi workload
// variants for all communication, and the shared-memory (dsm) variants
// for synchronization and reduction operations, exactly as in the paper.
//
// Timing is calibrated to the published figures — 9.1 us one-way
// latency and 169 MB/s streaming throughput on a 128-node system.
// Message passing uses private memory and the network's singlecast
// paths; it creates no coherence traffic, so it is modeled as a latency/
// bandwidth cost rather than as simulated packets (the DSM, the paper's
// subject, is simulated in full).
package mpi

import (
	"container/heap"
	"fmt"
	"math/bits"

	"cenju4/internal/sim"
	"cenju4/internal/timing"
	"cenju4/internal/topology"
)

// World is the communication context of all nodes in one machine.
type World struct {
	eng    *sim.Engine
	n      int
	params timing.MPIParams

	inbox    map[pairKey]*pairQueue
	barriers []*collective // in-flight barriers, matched by arrival order
	reduces  []*collective

	stats Stats
}

// Stats counts message-passing activity.
type Stats struct {
	Messages   uint64
	Bytes      uint64
	Barriers   uint64
	AllReduces uint64
}

type pairKey struct {
	src, dst topology.NodeID
}

// pairQueue holds in-flight arrivals and pending receivers for one
// (src,dst) channel; delivery is in-order.
type pairQueue struct {
	arrivals arrivalHeap // message arrival times
	waiters  []func()
}

type arrivalHeap []sim.Time

func (h arrivalHeap) Len() int           { return len(h) }
func (h arrivalHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h arrivalHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *arrivalHeap) Push(x any)        { *h = append(*h, x.(sim.Time)) }
func (h *arrivalHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// collective tracks one in-flight barrier or reduction.
type collective struct {
	arrived int
	waiters []func()
	bytes   uint64
	joined  map[topology.NodeID]bool
}

// New builds a world of n nodes.
func New(eng *sim.Engine, n int, params timing.MPIParams) *World {
	if params == (timing.MPIParams{}) {
		params = timing.DefaultMPI()
	}
	return &World{eng: eng, n: n, params: params, inbox: make(map[pairKey]*pairQueue)}
}

// Stats returns the counters.
func (w *World) Stats() Stats { return w.stats }

// Send transmits n bytes from src to dst. The message arrives after the
// latency+bandwidth cost.
func (w *World) Send(src, dst topology.NodeID, n uint64) {
	if int(src) >= w.n || int(dst) >= w.n {
		panic(fmt.Sprintf("mpi: send %v->%v outside world of %d", src, dst, w.n))
	}
	w.stats.Messages++
	w.stats.Bytes += n
	arrive := w.eng.Now() + w.params.Transfer(int(n))
	q := w.pair(src, dst)
	if len(q.waiters) > 0 {
		done := q.waiters[0]
		q.waiters = q.waiters[1:]
		w.eng.At(arrive, done)
		return
	}
	heap.Push(&q.arrivals, arrive)
}

// Recv completes when a message from src is available at dst.
func (w *World) Recv(dst, src topology.NodeID, done func()) {
	q := w.pair(src, dst)
	if q.arrivals.Len() > 0 {
		arrive := heap.Pop(&q.arrivals).(sim.Time)
		if arrive < w.eng.Now() {
			arrive = w.eng.Now()
		}
		w.eng.At(arrive, done)
		return
	}
	q.waiters = append(q.waiters, done)
}

func (w *World) pair(src, dst topology.NodeID) *pairQueue {
	k := pairKey{src, dst}
	q := w.inbox[k]
	if q == nil {
		q = &pairQueue{}
		w.inbox[k] = q
	}
	return q
}

// Barrier completes when all nodes have arrived at their next barrier.
// The release adds a tree-combining cost of 2*ceil(log2 n) message
// latencies, matching a software dissemination barrier over the
// message-passing mechanism.
func (w *World) Barrier(node topology.NodeID, done func()) {
	w.join(&w.barriers, node, 0, done)
}

// AllReduce completes the node's next global reduction of n bytes:
// barrier semantics plus per-stage data transfer.
func (w *World) AllReduce(node topology.NodeID, n uint64, done func()) {
	w.join(&w.reduces, node, n, done)
}

func (w *World) join(list *[]*collective, node topology.NodeID, bytes uint64, done func()) {
	// Find the first in-flight collective this node has not joined.
	var c *collective
	for _, cand := range *list {
		if !cand.joined[node] {
			c = cand
			break
		}
	}
	if c == nil {
		c = &collective{joined: make(map[topology.NodeID]bool)}
		*list = append(*list, c)
	}
	c.joined[node] = true
	c.arrived++
	c.waiters = append(c.waiters, done)
	if bytes > c.bytes {
		c.bytes = bytes
	}
	if c.arrived < w.n {
		return
	}
	// Complete: drop from the in-flight list, release everyone.
	for i, cand := range *list {
		if cand == c {
			*list = append((*list)[:i], (*list)[i+1:]...)
			break
		}
	}
	stages := log2ceil(w.n)
	cost := sim.Time(2*stages) * w.params.Latency
	if c.bytes > 0 {
		cost += sim.Time(stages) * (w.params.Transfer(int(c.bytes)) - w.params.Latency)
		w.stats.AllReduces++
	} else {
		w.stats.Barriers++
	}
	release := w.eng.Now() + cost
	for _, fn := range c.waiters {
		w.eng.At(release, fn)
	}
}

func log2ceil(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}
