package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"cenju4/internal/core"
	"cenju4/internal/machine"
	"cenju4/internal/runner"
	"cenju4/internal/sim"
	"cenju4/internal/topology"
)

// AblationNackResult compares the queuing protocol against the
// DASH-style nack protocol under hot-block contention (Figure 6's
// scenario: many nodes storing to one block).
type AblationNackResult struct {
	Nodes int
	// Queuing protocol.
	QueuingTime      sim.Time
	QueuingWorstCase sim.Time // worst single-access latency
	QueuedRequests   uint64
	QueueHighWater   int
	// Nack protocol.
	NackTime      sim.Time
	NackWorstCase sim.Time
	Nacks         uint64
	Retries       uint64
	MaxRetries    int
}

// AblationNack runs the hot-block storm under both protocol modes.
func AblationNack(nodes int) AblationNackResult {
	res := AblationNackResult{Nodes: nodes}
	run := func(mode core.Mode) (total, worst sim.Time, st core.Stats, agg func() (uint64, uint64, int)) {
		m := machine.New(machine.Config{Nodes: nodes, Multicast: true, Mode: mode})
		eng := m.Engine()
		addr := topology.SharedAddr(0, 0)
		var worstLat sim.Time
		for i := 0; i < nodes; i++ {
			node := topology.NodeID(i)
			start := eng.Now()
			m.Controller(node).Request(addr, true, func() {
				if lat := eng.Now() - start; lat > worstLat {
					worstLat = lat
				}
			})
		}
		eng.Run()
		agg = func() (nacks, retries uint64, maxRetries int) {
			for i := 0; i < nodes; i++ {
				s := m.Controller(topology.NodeID(i)).Stats()
				nacks += s.Nacks
				retries += s.Retries
				if s.MaxRetries > maxRetries {
					maxRetries = s.MaxRetries
				}
			}
			return
		}
		return eng.Now(), worstLat, m.Controller(0).Stats(), agg
	}
	var st core.Stats
	var agg func() (uint64, uint64, int)
	res.QueuingTime, res.QueuingWorstCase, st, _ = run(core.ModeQueuing)
	res.QueuedRequests = st.QueuedRequests
	res.QueueHighWater = st.QueueHighWater
	res.NackTime, res.NackWorstCase, _, agg = run(core.ModeNack)
	res.Nacks, res.Retries, res.MaxRetries = agg()
	return res
}

// Render prints the comparison.
func (r AblationNackResult) Render() string {
	t := &table{header: []string{"protocol", "completion", "worst access", "nacks", "retries", "max retries", "queued", "queue HW"}}
	t.add("queuing (Cenju-4)", us(r.QueuingTime), us(r.QueuingWorstCase), "0", "0", "0",
		fmt.Sprintf("%d", r.QueuedRequests), fmt.Sprintf("%d", r.QueueHighWater))
	t.add("nack (DASH-style)", us(r.NackTime), us(r.NackWorstCase),
		fmt.Sprintf("%d", r.Nacks), fmt.Sprintf("%d", r.Retries), fmt.Sprintf("%d", r.MaxRetries), "0", "0")
	return fmt.Sprintf("Ablation: hot-block storm, %d nodes storing to one block\n%s", r.Nodes, t.String())
}

// ThresholdPoint is one (threshold, sharers) -> latency measurement.
type ThresholdPoint struct {
	Threshold int
	Sharers   int
	Latency   sim.Time
}

// AblationThresholdResult explores the singlecast threshold the paper
// mentions but did not implement: using singlecast invalidations up to
// k targets instead of only one.
type AblationThresholdResult struct {
	Nodes  int
	Points []ThresholdPoint
}

// AblationSinglecastThreshold measures store latency across thresholds.
// Every (threshold, sharers) cell builds its own machine, so the grid
// shards across cfg.Parallel workers.
func AblationSinglecastThreshold(cfg Config, nodes int) AblationThresholdResult {
	res := AblationThresholdResult{Nodes: nodes}
	type cell struct{ thr, k int }
	var cells []cell
	for _, thr := range []int{1, 2, 4, 8} {
		for _, k := range []int{2, 3, 5, 9, 17} {
			if k >= nodes {
				continue
			}
			cells = append(cells, cell{thr, k})
		}
	}
	points, panics := runner.Map(cfg.parOpts(), len(cells), func(i int) ThresholdPoint {
		c := cells[i]
		m := machine.New(machine.Config{Nodes: nodes, Multicast: true, SinglecastThreshold: c.thr})
		addr := topology.SharedAddr(0, 0)
		for i := 1; i <= c.k; i++ {
			m.Access(topology.NodeID(i), addr, false)
		}
		return ThresholdPoint{c.thr, c.k, m.Access(1, addr, true)}
	})
	rethrow(panics)
	res.Points = points
	return res
}

// Render prints the threshold sweep.
func (r AblationThresholdResult) Render() string {
	t := &table{header: []string{"threshold", "sharers", "store latency"}}
	for _, p := range r.Points {
		t.add(fmt.Sprintf("%d", p.Threshold), fmt.Sprintf("%d", p.Sharers), us(p.Latency))
	}
	return fmt.Sprintf("Ablation: singlecast threshold (\"possible ... though not implemented\"), %d nodes\n%s",
		r.Nodes, t.String())
}

// ImprecisionPoint measures the invalidation overshoot of the
// bit-pattern map on the running protocol.
type ImprecisionPoint struct {
	Sharers   int
	Clustered bool
	// Targets is the number of invalidation targets actually addressed
	// (the decoded superset).
	Targets int
	// Latency of the triggering store.
	Latency sim.Time
}

// AblationImprecisionResult quantifies what the bit-pattern structure's
// imprecision costs in delivered invalidations and store latency, for
// sharers scattered across the machine versus clustered in one 64-node
// group (the multi-user scenario where the scheme shines).
type AblationImprecisionResult struct {
	Nodes  int
	Points []ImprecisionPoint
}

// AblationImprecision runs stores against blocks with k true sharers.
// Each cell draws its sharer placement from its own *rand.Rand, seeded
// from (seed, cell index) via runner.DeriveSeed, so cells never share
// a generator and the sweep shards across cfg.Parallel workers while a
// run stays reproduced by its arguments alone (the determinism
// analyzer forbids the global math/rand source). cmd/cenju4-bench
// plumbs its -ablation-seed flag here; 7 is the historical default.
func AblationImprecision(cfg Config, nodes int, seed int64) AblationImprecisionResult {
	res := AblationImprecisionResult{Nodes: nodes}
	type cell struct {
		clustered bool
		k         int
	}
	var cells []cell
	for _, clustered := range []bool{false, true} {
		for _, k := range []int{4, 8, 16, 32, 64} {
			if k >= nodes {
				continue
			}
			cells = append(cells, cell{clustered, k})
		}
	}
	points, panics := runner.Map(cfg.parOpts(), len(cells), func(i int) ImprecisionPoint {
		c := cells[i]
		rng := rand.New(rand.NewSource(int64(runner.DeriveSeed(uint64(seed), i))))
		m := machine.New(machine.Config{Nodes: nodes, Multicast: true})
		addr := topology.SharedAddr(0, 0)
		span := nodes - 1
		if c.clustered && span > 64 {
			span = 64
		}
		seen := map[int]bool{}
		var sharers []topology.NodeID
		for len(sharers) < c.k {
			n := 1 + rng.Intn(span)
			if !seen[n] {
				seen[n] = true
				sharers = append(sharers, topology.NodeID(n))
			}
		}
		for _, n := range sharers {
			m.Access(n, addr, false)
		}
		lat := m.Access(sharers[0], addr, true)
		return ImprecisionPoint{
			Sharers:   c.k,
			Clustered: c.clustered,
			Targets:   int(m.Controller(0).Stats().InvTargets),
			Latency:   lat,
		}
	})
	rethrow(panics)
	res.Points = points
	return res
}

// Render prints the overshoot table.
func (r AblationImprecisionResult) Render() string {
	t := &table{header: []string{"sharers", "placement", "inv targets", "overshoot", "store latency"}}
	for _, p := range r.Points {
		place := "scattered"
		if p.Clustered {
			place = "64-node group"
		}
		t.add(fmt.Sprintf("%d", p.Sharers), place, fmt.Sprintf("%d", p.Targets),
			fmt.Sprintf("%.1fx", float64(p.Targets)/float64(p.Sharers)),
			us(p.Latency))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: bit-pattern imprecision on the running protocol, %d nodes\n", r.Nodes)
	b.WriteString(t.String())
	b.WriteString("\nClustering sharers (the multi-user partition case) keeps the decoded\nsuperset small — the paper's Figure 4(b) argument, here measured as\ndelivered invalidations.\n")
	return b.String()
}
