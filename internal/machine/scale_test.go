package machine

// Full-machine-scale regression suite: the paper's headline claims are
// made at 1024 nodes, so the hot-state compaction work (packed cache
// sets, paged directories, ring queues, pooled events and transactions)
// is locked down at that scale, not just at the 4–16 node sizes the
// main golden matrix covers.
//
//   - TestScaleGoldenDigests: two 1024-node runs — the synthetic golden
//     workload and an NPB CG (dsm2) shape — must complete within an
//     event budget and reproduce pinned digests.
//   - TestScaleSeqVsParallelIdentity: the same 1024-node run digests
//     byte-identically whether machines execute one at a time or
//     concurrently (run under -race in CI, this proves machines share
//     no mutable state).
//   - TestScaleSparseVsDenseDigest: the sparse directory layout and the
//     retained dense reference produce identical digests end to end.
//   - TestSteadyStateProtocolAllocs: a warm machine executes tens of
//     thousands of protocol operations with only a per-round constant
//     number of heap allocations.
//   - BenchmarkGoldenRun1024: the synthetic golden workload at 1024
//     nodes, reported as events/sec (BENCH_scale.json pins a floor).
//
// Regenerate the pinned digests after an intentional behavior change:
//
//	UPDATE_GOLDEN=1 go test ./internal/machine -run TestScaleGoldenDigests

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"cenju4/internal/cpu"
	"cenju4/internal/npb"
	"cenju4/internal/topology"
)

const scaleNodes = 1024

type scaleCase struct {
	name string
	// budget is the RunContext event ceiling: generous headroom over the
	// measured event count (so legitimate timing changes do not trip
	// it), but tight enough that a complexity regression — an event
	// storm from a broken queue or retry loop — fails fast instead of
	// hanging the suite.
	budget uint64
	progs  func(t testing.TB) ([]cpu.Program, Config)
}

func scaleMatrix() []scaleCase {
	return []scaleCase{
		{
			// The golden synthetic workload at full machine size:
			// ~123k shared accesses over blocks homed on all 1024 nodes
			// (measured ~2.3M events).
			name:   "synthetic-n1024-s1",
			budget: 8_000_000,
			progs: func(testing.TB) ([]cpu.Program, Config) {
				return goldenProgs(scaleNodes, 1), Config{Nodes: scaleNodes, Multicast: true}
			},
		},
		{
			// An NPB-shape run: CG (dsm2 variant, data mapping on) at
			// quarter Class A scale, one time step (measured ~480k
			// events). This is the paper's evaluation workload shape at
			// the paper's full machine size.
			name:   "npb-cg-n1024",
			budget: 2_000_000,
			progs: func(t testing.TB) ([]cpu.Program, Config) {
				w, err := npb.Build(npb.Options{
					App: npb.CG, Variant: npb.DSM2, Nodes: scaleNodes,
					DataMapping: true, Iterations: 1, Scale: 0.25,
				})
				if err != nil {
					t.Fatal(err)
				}
				return w.Progs, Config{Nodes: scaleNodes, Multicast: true, UpdateMode: w.UpdateMode}
			},
		},
	}
}

// runScale executes one scale case under its event budget and returns
// the result digest.
func runScale(t testing.TB, c scaleCase) string {
	progs, cfg := c.progs(t)
	m := New(cfg)
	r, err := m.RunContext(context.Background(), progs, c.budget)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return Digest(r)
}

func TestScaleGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node runs are seconds each; skipped under -short")
	}
	cases := scaleMatrix()
	names := make([]string, len(cases))
	for i, c := range cases {
		names[i] = c.name
	}
	want := goldenFile(t, filepath.Join("testdata", "golden_scale.txt"),
		"machine.Result digests for the 1024-node scale matrix.",
		"TestScaleGoldenDigests", names, func(i int) string { return runScale(t, cases[i]) })
	if want == nil {
		return
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel() // each case owns its machine; digests are per-case
			if got := runScale(t, c); got != want[c.name] {
				t.Errorf("digest %s\n     want %s\n1024-node outcome changed; if intentional, regenerate with UPDATE_GOLDEN=1 and explain in the commit", got, want[c.name])
			}
		})
	}
}

// TestScaleSeqVsParallelIdentity: a 1024-node machine digests
// identically whether it runs alone or while three sibling machines run
// the same workload on other goroutines. Under -race (CI's race job)
// this also proves full-scale machines share no mutable state — pools,
// singles tables, page maps are all per-machine or immutable.
func TestScaleSeqVsParallelIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("four 1024-node runs; skipped under -short")
	}
	c := scaleMatrix()[0]
	seq := runScale(t, c)

	const workers = 3
	digests := make([]string, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			digests[i] = runScale(t, c)
		}(i)
	}
	wg.Wait()
	for i, d := range digests {
		if d != seq {
			t.Errorf("concurrent run %d digest %s != sequential %s", i, d, seq)
		}
	}
}

// TestScaleSparseVsDenseDigest: the machine-scope composition of the
// layer-local differentials in internal/memory — running every node's
// directory on the dense reference layout must not change any
// observable outcome.
func TestScaleSparseVsDenseDigest(t *testing.T) {
	nodes := []int{16}
	if !testing.Short() {
		nodes = append(nodes, scaleNodes)
	}
	for _, n := range nodes {
		progs := func() []cpu.Program { return goldenProgs(n, 7) }
		sparse := New(Config{Nodes: n, Multicast: true})
		dense := New(Config{Nodes: n, Multicast: true, DenseDirectory: true})
		ds := Digest(sparse.Run(progs()))
		dd := Digest(dense.Run(progs()))
		if ds != dd {
			t.Errorf("n=%d: sparse digest %s != dense digest %s", n, ds, dd)
		}
	}
}

// loopProgram is a resettable op-slice program: the steady-state alloc
// test re-arms the same program objects each round so the measurement
// sees only the machine's allocations, not the workload's.
type loopProgram struct {
	ops []cpu.Op
	pos int
}

func (p *loopProgram) Fill(buf []cpu.Op) int {
	n := copy(buf, p.ops[p.pos:])
	p.pos += n
	return n
}

// TestSteadyStateProtocolAllocs pins the allocation discipline of the
// protocol hot path: after one warmup round (which populates message,
// event and transaction pools, directory pages, cache set pages, and
// latency histograms), a round of 64k coherence operations across a
// 16-node machine must average out to a per-round constant — one
// event-engine entry per CPU restart plus pool/queue slack — not a
// per-operation cost. Before the compaction work a round like this
// allocated on every transaction (closure captures, map-backed
// directory entries, append-grown queues).
func TestSteadyStateProtocolAllocs(t *testing.T) {
	const nodes = 16
	const opsPerNode = 4000
	m := New(Config{Nodes: nodes, Multicast: true})

	progs := make([]*loopProgram, nodes)
	for n := range progs {
		s := splitmix64(uint64(n + 1))
		ops := make([]cpu.Op, opsPerNode)
		for i := range ops {
			s = splitmix64(s)
			home := topology.NodeID(s % nodes)
			block := (s >> 17) % 4
			addr := topology.SharedAddr(home, block*topology.BlockSize)
			kind := cpu.OpLoad
			if (s>>37)%4 == 0 {
				kind = cpu.OpStore
			}
			ops[i] = cpu.Op{Kind: kind, Addr: addr}
		}
		progs[n] = &loopProgram{ops: ops}
	}

	remaining := 0
	done := func() { remaining-- }
	round := func() {
		remaining = nodes
		for i, p := range progs {
			p.pos = 0
			m.CPU(topology.NodeID(i)).Run(p, done)
		}
		m.Engine().Run()
		if remaining != 0 {
			t.Fatalf("%d programs never finished", remaining)
		}
	}

	round() // warm pools, pages, histograms, rings
	avg := testing.AllocsPerRun(5, round)
	// 16 CPU restarts schedule 16 pooled events; the budget leaves room
	// for pool top-ups and an occasional new event slab, and is still
	// three orders of magnitude below one alloc per operation.
	const budget = 64
	t.Logf("steady-state round: %.1f allocs for %d protocol ops", avg, nodes*opsPerNode)
	if avg > budget {
		t.Errorf("steady-state round allocated %.1f times (budget %d) for %d ops — protocol hot path is allocating again", avg, budget, nodes*opsPerNode)
	}
}

// BenchmarkGoldenRun1024 times one full 1024-node synthetic golden run
// per iteration (machine construction excluded) and reports simulation
// events fired per wall-clock second.
func BenchmarkGoldenRun1024(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		progs := goldenProgs(scaleNodes, 1)
		m := New(Config{Nodes: scaleNodes, Multicast: true})
		b.StartTimer()
		events += m.Run(progs).Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}
