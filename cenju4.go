// Package cenju4 is a simulator of the Cenju-4 distributed shared
// memory architecture (Hosomi, Kanoh, Nakamura, Hirose: "A DSM
// Architecture for a Parallel Computer Cenju-4", HPCA 2000).
//
// It models the full machine: up to 1024 nodes, each with an
// R10000-class processor, a 1 MB MESI secondary cache, main memory with
// a 64-bit-per-block directory that dynamically switches from a pointer
// structure to a bit-pattern structure, and a controller with master,
// home and slave modules running the paper's starvation-free queuing
// coherence protocol — all connected by a multistage network of 4x4
// crossbar switches with hardware multicast and in-network reply
// gathering.
//
// This package is the high-level entry point:
//
//   - NewMachine builds a machine and lets you issue individual shared
//     loads and stores, inspect cache and directory state, and read the
//     protocol statistics;
//   - RunNPB builds and executes the paper's synthetic NAS Parallel
//     Benchmark workloads (BT, CG, FT, SP in seq/mpi/dsm(1)/dsm(2)
//     forms) and reports the metrics of Figures 11-12 and Tables 3-4;
//   - DirectoryPrecision runs the Figure 4 node-map precision
//     comparison.
//
// The full experiment harness that regenerates every table and figure
// of the paper lives in internal/experiments and is driven by
// cmd/cenju4-bench.
package cenju4

import (
	"context"
	"fmt"
	"time"

	"cenju4/internal/core"
	"cenju4/internal/directory"
	"cenju4/internal/fuzz"
	"cenju4/internal/machine"
	"cenju4/internal/metrics"
	"cenju4/internal/spec"
	"cenju4/internal/topology"
	"cenju4/internal/trace"
)

// Option configures a Machine.
type Option func(*machine.Config)

// WithoutMulticast disables the network's multicast and gathering
// functions (invalidations fall back to singlecast messages).
func WithoutMulticast() Option {
	return func(c *machine.Config) { c.Multicast = false }
}

// WithNackProtocol switches the coherence protocol to the DASH-style
// nack/retry variant instead of Cenju-4's starvation-free queuing
// protocol.
func WithNackProtocol() Option {
	return func(c *machine.Config) { c.Mode = core.ModeNack }
}

// WithStages overrides the network stage count (default: 2 stages up to
// 16 nodes, 4 up to 128, 6 up to 1024).
func WithStages(n int) Option {
	return func(c *machine.Config) { c.Stages = n }
}

// Machine is an assembled Cenju-4 system driven one access at a time.
// It is not safe for concurrent use; the simulation is deterministic.
type Machine struct {
	m *machine.Machine
}

// NewMachine builds a machine of the given node count (a power of two,
// at most 1024). It panics on an invalid node count, like the
// underlying constructors — configuration errors are programming
// errors.
func NewMachine(nodes int, opts ...Option) *Machine {
	cfg := machine.Config{Nodes: nodes, Multicast: true}
	for _, o := range opts {
		o(&cfg)
	}
	return &Machine{m: machine.New(cfg)}
}

// Nodes returns the machine size.
func (m *Machine) Nodes() int { return m.m.Nodes() }

// Stages returns the network stage count.
func (m *Machine) Stages() int { return m.m.Network().Stages() }

// Load performs a shared-memory load by node from the block at the
// given home node and byte offset, runs the simulation to completion,
// and returns the access latency.
func (m *Machine) Load(node, home int, offset uint64) time.Duration {
	return m.access(node, home, offset, false)
}

// Store performs a shared-memory store (see Load).
func (m *Machine) Store(node, home int, offset uint64) time.Duration {
	return m.access(node, home, offset, true)
}

func (m *Machine) access(node, home int, offset uint64, store bool) time.Duration {
	addr := topology.SharedAddr(topology.NodeID(home), offset)
	return time.Duration(m.m.Access(topology.NodeID(node), addr, store))
}

// CacheState returns node's MESI state for the block at (home, offset):
// "I", "S", "E" or "M".
func (m *Machine) CacheState(node, home int, offset uint64) string {
	addr := topology.SharedAddr(topology.NodeID(home), offset)
	return m.m.Controller(topology.NodeID(node)).Cache().State(addr).String()
}

// DirectoryState describes the home directory entry of one block.
type DirectoryState struct {
	// State is "C", "D", "Ps", "Pe" or "Pi".
	State string
	// Sharers is the represented node set (a superset of the true
	// sharers once the entry has switched to bit-pattern form).
	Sharers []int
	// BitPattern reports whether the entry uses the bit-pattern
	// structure (false: precise pointer structure).
	BitPattern bool
	// Reserved reports the reservation bit (a queued request waits).
	Reserved bool
}

// Directory returns the directory entry state of the block at (home,
// offset).
func (m *Machine) Directory(home int, offset uint64) DirectoryState {
	addr := topology.SharedAddr(topology.NodeID(home), offset)
	e := m.m.Controller(topology.NodeID(home)).Memory().Entry(addr)
	ds := DirectoryState{
		State:      e.State().String(),
		BitPattern: e.Dest().IsPattern(),
		Reserved:   e.Reserved(),
	}
	for _, n := range e.Dest().Members(nil, m.m.Nodes()) {
		ds.Sharers = append(ds.Sharers, int(n))
	}
	return ds
}

func (d DirectoryState) String() string {
	form := "pointer"
	if d.BitPattern {
		form = "bit-pattern"
	}
	return fmt.Sprintf("state=%s form=%s sharers=%v reserved=%v", d.State, form, d.Sharers, d.Reserved)
}

// Stats summarizes protocol activity across the machine.
type Stats struct {
	Requests        uint64
	Invalidations   uint64
	Nacks           uint64
	Retries         uint64
	QueuedRequests  uint64
	NetworkMessages uint64
	GatherMerges    uint64
}

// Stats aggregates the controllers' and network's counters.
func (m *Machine) Stats() Stats {
	var s Stats
	for i := 0; i < m.m.Nodes(); i++ {
		cs := m.m.Controller(topology.NodeID(i)).Stats()
		s.Requests += cs.HomeRequests
		s.Invalidations += cs.Invalidations
		s.Nacks += cs.Nacks
		s.Retries += cs.Retries
		s.QueuedRequests += cs.QueuedRequests
	}
	ns := m.m.Network().Stats()
	s.NetworkMessages = ns.Messages
	s.GatherMerges = ns.GatherMerges
	return s
}

// ---------------------------------------------------------------------
// Workloads.

// WorkloadResult summarizes one application run.
type WorkloadResult struct {
	// Time is the simulated makespan.
	Time time.Duration
	// Instructions and MemAccesses are machine totals.
	Instructions uint64
	MemAccesses  uint64
	// MissRatio is secondary-cache misses / memory accesses.
	MissRatio float64
	// Miss shares by address class (fractions of all misses).
	PrivateMissShare, LocalMissShare, RemoteMissShare float64
	// SyncFraction is synchronization time / total processor time.
	SyncFraction float64
	// RewriteRatio is the program-rewriting ratio of this variant.
	RewriteRatio float64
	// Latency holds per-request-kind transaction latency summaries,
	// keyed by kind name ("read-shared", "ownership", ...).
	Latency map[string]LatencyStats
}

// LatencyStats summarizes one request kind's latency distribution.
type LatencyStats struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration // log-bucketed upper bound
	P99   time.Duration
	Max   time.Duration
}

// WorkloadOptions parameterizes RunNPB.
type WorkloadOptions struct {
	// Nodes is the machine size (default 16).
	Nodes int
	// DataMapping applies the shared-data mappings (default true).
	DataMapping *bool
	// Iterations is the outer time-step count (default 2).
	Iterations int
	// Scale is the problem size relative to NPB Class A (default 0.05).
	Scale float64
	// UpdateProtocol runs the application's hot shared region under the
	// update-type protocol extension (the paper's Section 4.2.3
	// proposal): stores broadcast data to a third-level cache in every
	// node's main memory and loads are satisfied locally.
	UpdateProtocol bool
	// Fault is a deterministic fault plan — a preset name like
	// "light-loss" or a k=v spec like "drop=0.02,seed=7" (see
	// internal/faults). Recoverable plans only: the run must complete,
	// so an unrecoverable plan aborts with the machine watchdog's
	// diagnosis. Empty means fault-free.
	Fault string
	// Metrics, when non-nil, receives the run's observability registry
	// (counters, watermark gauges, latency histograms) — see
	// internal/metrics.
	Metrics *metrics.Registry
	// Trace, when non-nil, collects the protocol event stream; export it
	// with trace.WriteChrome for Perfetto.
	Trace *trace.Collector
}

// RunNPB builds and runs one of the paper's workloads. app is one of
// "bt", "cg", "ft", "sp"; variant is "seq", "mpi", "dsm1" or "dsm2".
// The options are checked by spec.Spec.Validate (a bad node count is a
// machine.InvalidNodeCountError; scale must lie in [0.001, 4] and
// iterations in [1, 64]), and the run is checked for machine-wide
// coherence before it is reported.
func RunNPB(app, variant string, opts WorkloadOptions) (WorkloadResult, error) {
	s := spec.Spec{
		App:            app,
		Variant:        variant,
		Nodes:          opts.Nodes,
		NoMapping:      opts.DataMapping != nil && !*opts.DataMapping,
		Iterations:     opts.Iterations,
		Scale:          opts.Scale,
		UpdateProtocol: opts.UpdateProtocol,
		Fault:          opts.Fault,
	}.Normalize()
	if err := s.Validate(); err != nil {
		return WorkloadResult{}, err
	}
	out, err := s.Run(context.Background(), opts.Trace, 0)
	if err != nil {
		return WorkloadResult{}, err
	}
	if opts.Metrics != nil {
		out.Machine.MetricsInto(opts.Metrics)
	}
	lat := make(map[string]LatencyStats)
	for kind, h := range out.Machine.LatencyHistograms() {
		lat[kind.String()] = LatencyStats{
			Count: h.Count(),
			Mean:  time.Duration(h.Mean()),
			P50:   time.Duration(h.Percentile(50)),
			P99:   time.Duration(h.Percentile(99)),
			Max:   time.Duration(h.Max()),
		}
	}
	tot := out.Result.Totals()
	private, local, remote := spec.MissShares(tot)
	return WorkloadResult{
		Time:             time.Duration(out.Result.Time),
		Instructions:     tot.Instructions,
		MemAccesses:      tot.MemAccesses,
		MissRatio:        tot.MissRatio(),
		PrivateMissShare: private,
		LocalMissShare:   local,
		RemoteMissShare:  remote,
		SyncFraction:     spec.SyncFraction(out.Result),
		RewriteRatio:     out.Meta.RewriteRatio,
		Latency:          lat,
	}, nil
}

// ---------------------------------------------------------------------
// Directory precision (Figure 4).

// PrecisionPoint is one precision measurement: Sharers true sharers
// decoded to an average of Represented nodes.
type PrecisionPoint struct {
	Sharers     int
	Represented float64
}

// DirectoryPrecision runs the Figure 4 Monte-Carlo comparison: for each
// scheme (coarse vector, hierarchical bit-map, Cenju-4's pointer +
// bit-pattern), the average represented-set size per sharer count.
// groupSize confines sharers to one aligned group (0 = whole machine).
func DirectoryPrecision(totalNodes, groupSize, trials int, sharerCounts []int) map[string][]PrecisionPoint {
	cfg := directory.PrecisionConfig{
		TotalNodes: totalNodes,
		GroupSize:  groupSize,
		Trials:     trials,
		Seed:       1,
	}
	out := make(map[string][]PrecisionPoint)
	for _, s := range directory.Schemes() {
		for _, p := range directory.EvaluatePrecision(s, cfg, sharerCounts) {
			out[s.Name] = append(out[s.Name], PrecisionPoint{p.Sharers, p.Represented})
		}
	}
	return out
}

// Schemes returns the names of the compared directory schemes.
func Schemes() []string {
	var names []string
	for _, s := range directory.Schemes() {
		names = append(names, s.Name)
	}
	return names
}

// Validate checks the machine's structural coherence invariants (single
// writer, directory/cache agreement, drained queues). Call it when the
// simulation is idle — after Load/Store returned, between workload
// phases.
func (m *Machine) Validate() error { return m.m.Validate() }

// FuzzSmoke runs a bounded randomized coherence sweep (every traffic
// pattern against every protocol configuration cell) with the
// consistency oracle attached, and returns an error describing the
// first failure, if any. It is a cheap machine-health check; the full
// harness lives in internal/fuzz and cmd/cenju4-fuzz. An invalid op
// count is reported as an error before anything runs.
func FuzzSmoke(seed uint64, ops int) error {
	rep, err := fuzz.Run(fuzz.Options{Seed: seed, Ops: ops})
	if err != nil {
		return err
	}
	if rep.Failed() {
		return fmt.Errorf("fuzz smoke (seed %d):\n%s", seed, rep.String())
	}
	return nil
}
