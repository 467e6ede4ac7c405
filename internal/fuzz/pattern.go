// Package fuzz is a deterministic, seed-driven coherence-traffic fuzzer
// and memory-consistency oracle for the Cenju-4 model.
//
// A fuzz run sweeps adversarial access patterns across the protocol
// configuration matrix (queuing vs. nack, multicast on/off, update
// protocol on/off, network stage counts). Every case drives a freshly
// assembled machine with generated per-node op streams while a shadow
// oracle — fed by the core package's value-tracking hooks — checks that
// each load observes exactly the value the coherence order requires,
// that the machine's structural invariants hold at every quiescent
// point, and that all copies converge once the traffic drains. On
// failure the harness reports the seed, shrinks the op streams to a
// minimal reproducer, and (in replay mode) dumps the protocol trace.
//
// Everything is derived from the case seed through fixed-order
// generation and the simulator's deterministic event ordering, so the
// same seed and configuration reproduce a byte-identical report.
package fuzz

import (
	"fmt"
	"math/rand"
	"strings"

	"cenju4/internal/cpu"
	"cenju4/internal/topology"
)

// Pattern selects one adversarial traffic generator.
type Pattern uint8

const (
	// PatternUniform spreads loads and stores uniformly over a pool of
	// blocks on every home.
	PatternUniform Pattern = iota
	// PatternHotspot concentrates store-heavy traffic on one block,
	// contending for its home's directory entry and memory queue.
	PatternHotspot
	// PatternPartition clusters many sharers onto a few blocks so the
	// directory's pointer encoding overflows into the bit-pattern
	// fallback before stores blast wide invalidations.
	PatternPartition
	// PatternMigratory passes exclusive ownership of each block from
	// node to node in load-store-store bursts.
	PatternMigratory
	// PatternProducerConsumer has a rotating producer store a block set
	// that every other node then reads.
	PatternProducerConsumer
	// PatternFalseSharing makes each node hammer a distinct word of the
	// same 128-byte block.
	PatternFalseSharing
	// PatternEviction thrashes one 2-way L2 set with conflicting shared
	// and private blocks, forcing writebacks and refills mid-protocol.
	PatternEviction
)

// AllPatterns lists every generator in report order.
func AllPatterns() []Pattern {
	return []Pattern{
		PatternUniform, PatternHotspot, PatternPartition,
		PatternMigratory, PatternProducerConsumer,
		PatternFalseSharing, PatternEviction,
	}
}

var patternNames = map[Pattern]string{
	PatternUniform:          "uniform",
	PatternHotspot:          "hotspot",
	PatternPartition:        "partition",
	PatternMigratory:        "migratory",
	PatternProducerConsumer: "producer-consumer",
	PatternFalseSharing:     "false-sharing",
	PatternEviction:         "eviction",
}

func (p Pattern) String() string {
	if s, ok := patternNames[p]; ok {
		return s
	}
	return fmt.Sprintf("pattern(%d)", uint8(p))
}

// ParsePattern resolves a CLI name ("all" is handled by the caller).
func ParsePattern(s string) (Pattern, error) {
	for p, name := range patternNames {
		if name == s {
			return p, nil
		}
	}
	var names []string
	for _, p := range AllPatterns() {
		names = append(names, p.String())
	}
	return 0, fmt.Errorf("unknown pattern %q (have: %s)", s, strings.Join(names, ", "))
}

// setStride is the address distance between blocks mapping to the same
// set of the default 1 MB 2-way L2 (4096 sets x 128 B).
const setStride = 4096 * topology.BlockSize

// blockPool builds count block addresses with homes round-robined over
// the machine and consecutive block offsets per home, so every home's
// directory and memory queue sees traffic.
func blockPool(nodes, count int) []topology.Addr {
	pool := make([]topology.Addr, count)
	for i := range pool {
		home := topology.NodeID(i % nodes)
		pool[i] = topology.SharedAddr(home, uint64(i/nodes)*topology.BlockSize)
	}
	return pool
}

// jitter appends a short compute batch ~10% of the time so the nodes'
// quanta drift apart and interleavings vary between rounds.
func jitter(rng *rand.Rand, ops []cpu.Op) []cpu.Op {
	if rng.Intn(10) == 0 {
		return append(ops, cpu.Op{Kind: cpu.OpCompute, N: uint64(1 + rng.Intn(40))})
	}
	return ops
}

// access builds one load or store on a random word of the block.
func access(rng *rand.Rand, block topology.Addr, store bool) cpu.Op {
	kind := cpu.OpLoad
	if store {
		kind = cpu.OpStore
	}
	return cpu.Op{Kind: kind, Addr: block + topology.Addr(8*rng.Intn(topology.BlockSize/8))}
}

// Generate materializes the per-node op streams for one case. The same
// (pattern, seed, nodes, ops) always yields identical streams.
func Generate(p Pattern, seed uint64, nodes, ops int) [][]cpu.Op {
	rng := rand.New(rand.NewSource(int64(seed)))
	perNode := ops / nodes
	if perNode < 1 {
		perNode = 1
	}
	// Every pattern emits about perNode accesses per node plus ~10%
	// jitter; sizing the streams up front saves append's regrowth copies.
	streams := make([][]cpu.Op, nodes)
	for n := range streams {
		streams[n] = make([]cpu.Op, 0, perNode+perNode/8+1)
	}
	switch p {
	case PatternUniform:
		pool := blockPool(nodes, 64)
		for n := range streams {
			for i := 0; i < perNode; i++ {
				b := pool[rng.Intn(len(pool))]
				streams[n] = jitter(rng, append(streams[n], access(rng, b, rng.Intn(10) < 3)))
			}
		}

	case PatternHotspot:
		pool := blockPool(nodes, 5)
		hot := pool[0]
		for n := range streams {
			for i := 0; i < perNode; i++ {
				b := hot
				if rng.Intn(5) == 0 {
					b = pool[1+rng.Intn(len(pool)-1)]
				}
				streams[n] = jitter(rng, append(streams[n], access(rng, b, rng.Intn(2) == 0)))
			}
		}

	case PatternPartition:
		// Groups of up to 8 nodes share 4 group-private blocks,
		// load-heavy so the sharer sets exceed the directory's pointer
		// capacity before the occasional store sweeps them.
		g := 8
		if g > nodes {
			g = nodes
		}
		pool := blockPool(nodes, 4*((nodes+g-1)/g))
		for n := range streams {
			group := n / g
			base := group * 4
			for i := 0; i < perNode; i++ {
				b := pool[base+rng.Intn(4)]
				streams[n] = jitter(rng, append(streams[n], access(rng, b, rng.Intn(100) < 15)))
			}
		}

	case PatternMigratory:
		// In phase p, node n owns the blocks with (index+p) % nodes == n
		// and runs a read-modify-write burst on each: ownership chases
		// the phase around the machine.
		pool := blockPool(nodes, nodes)
		phases := perNode / 3
		if phases < 1 {
			phases = 1
		}
		for n := range streams {
			for ph := 0; ph < phases; ph++ {
				for idx, b := range pool {
					if (idx+ph)%nodes != n {
						continue
					}
					streams[n] = append(streams[n],
						access(rng, b, false), access(rng, b, true), access(rng, b, true))
				}
				streams[n] = jitter(rng, streams[n])
			}
		}

	case PatternProducerConsumer:
		pool := blockPool(nodes, 8)
		rounds := perNode / len(pool)
		if rounds < 1 {
			rounds = 1
		}
		for n := range streams {
			for r := 0; r < rounds; r++ {
				producer := r % nodes
				for _, b := range pool {
					streams[n] = append(streams[n], access(rng, b, n == producer))
				}
				streams[n] = jitter(rng, streams[n])
			}
		}

	case PatternFalseSharing:
		pool := blockPool(nodes, 2)
		for n := range streams {
			word := topology.Addr(8 * (n % (topology.BlockSize / 8)))
			for i := 0; i < perNode; i++ {
				b := pool[rng.Intn(len(pool))] + word
				kind := cpu.OpLoad
				if rng.Intn(5) < 3 {
					kind = cpu.OpStore
				}
				streams[n] = jitter(rng, append(streams[n], cpu.Op{Kind: kind, Addr: b}))
			}
		}

	case PatternEviction:
		// Shared and private blocks all mapping to one L2 set: with two
		// ways, nearly every access evicts a victim, so refills race
		// writebacks and forwarded requests hit vanished copies.
		set := uint64(5 * topology.BlockSize)
		var shared []topology.Addr
		for k := 0; k < 3*nodes; k++ {
			home := topology.NodeID(k % nodes)
			shared = append(shared, topology.SharedAddr(home, set+uint64(k/nodes)*setStride))
		}
		var private []topology.Addr
		for j := 0; j < 4; j++ {
			private = append(private, topology.PrivateAddr(set+uint64(1+j)*setStride))
		}
		for n := range streams {
			for i := 0; i < perNode; i++ {
				if rng.Intn(5) < 2 {
					b := private[rng.Intn(len(private))]
					streams[n] = append(streams[n], access(rng, b, rng.Intn(2) == 0))
					continue
				}
				b := shared[rng.Intn(len(shared))]
				streams[n] = jitter(rng, append(streams[n], access(rng, b, rng.Intn(10) < 3)))
			}
		}

	default:
		panic(fmt.Sprintf("fuzz: unknown pattern %d", uint8(p)))
	}
	return streams
}

// Universe returns the sorted distinct shared blocks touched by ops,
// for the oracle's final convergence sweep.
func Universe(ops [][]cpu.Op) []topology.Addr {
	seen := make(map[topology.Addr]bool)
	var blocks []topology.Addr
	for _, stream := range ops {
		for _, op := range stream {
			if op.Kind != cpu.OpLoad && op.Kind != cpu.OpStore {
				continue
			}
			b := op.Addr.Block()
			if op.Addr.Shared() && !seen[b] {
				seen[b] = true
				blocks = append(blocks, b)
			}
		}
	}
	sortAddrs(blocks)
	return blocks
}

func sortAddrs(a []topology.Addr) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// CountOps tallies loads and stores across all streams.
func CountOps(ops [][]cpu.Op) (loads, stores int) {
	for _, stream := range ops {
		for _, op := range stream {
			switch op.Kind {
			case cpu.OpLoad:
				loads++
			case cpu.OpStore:
				stores++
			case cpu.OpCompute, cpu.OpBarrier, cpu.OpSend, cpu.OpRecv, cpu.OpAllReduce:
				// No coherence traffic to tally.
			case cpu.OpRun:
				panic("fuzz: OpRun in a fuzz stream (value-tracked programs use element ops)")
			}
		}
	}
	return
}

// FormatOps renders op streams as a compact deterministic reproducer
// listing (one line per node).
func FormatOps(ops [][]cpu.Op) string {
	var b strings.Builder
	for n, stream := range ops {
		fmt.Fprintf(&b, "n%d:", n)
		if len(stream) == 0 {
			b.WriteString(" (idle)")
		}
		for _, op := range stream {
			switch op.Kind {
			case cpu.OpLoad:
				fmt.Fprintf(&b, " Ld %v", op.Addr)
			case cpu.OpStore:
				fmt.Fprintf(&b, " St %v", op.Addr)
			case cpu.OpCompute:
				fmt.Fprintf(&b, " C%d", op.N)
			case cpu.OpBarrier, cpu.OpSend, cpu.OpRecv, cpu.OpAllReduce, cpu.OpRun:
				// Message-passing ops and runs never appear in coherence
				// fuzz streams; render them generically if they ever do.
				fmt.Fprintf(&b, " op%d", op.Kind)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
