// Package machine assembles a complete Cenju-4: N nodes (processor,
// cache, controller with master/home/slave modules, memory), the
// multistage network, and the message-passing world — and runs workload
// programs on it.
package machine

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"cenju4/internal/cache"
	"cenju4/internal/core"
	"cenju4/internal/cpu"
	"cenju4/internal/faults"
	"cenju4/internal/metrics"
	"cenju4/internal/mpi"
	"cenju4/internal/msg"
	"cenju4/internal/network"
	"cenju4/internal/sim"
	"cenju4/internal/stats"
	"cenju4/internal/timing"
	"cenju4/internal/topology"
)

// Config parameterizes a machine.
type Config struct {
	// Nodes is the machine size (power of two up to 1024).
	Nodes int
	// Stages overrides the network stage count (0 = paper default).
	Stages int
	// Multicast enables the network's multicast/gathering functions
	// (the real hardware; disable for the Figure 10 comparison).
	Multicast bool
	// Mode selects the coherence protocol (queuing or nack).
	Mode core.Mode
	// Params supplies hardware latency constants.
	Params timing.Params
	// MPI supplies message-passing constants.
	MPI timing.MPIParams
	// Cache overrides cache geometry.
	Cache cache.Config
	// CPU overrides processor constants (Node is filled per node).
	CPU cpu.Config
	// SinglecastThreshold forwards to core.Config.
	SinglecastThreshold int
	// UpdateMode forwards to core.Config: blocks handled by the
	// update-protocol extension.
	UpdateMode func(topology.Addr) bool
	// Faults forwards deliberate protocol-bug injection to every
	// controller (used by the fuzzing harness's self-tests; nil in
	// production configurations).
	Faults *core.Faults
	// DenseDirectory forwards to core.Config: build every node's
	// directory on the retained dense reference layout instead of the
	// sparse paged store. Observable behavior is identical (the digest
	// differential test proves it); only memory cost differs.
	DenseDirectory bool
	// Fault is the deterministic fault plan: message loss, duplication,
	// delay, and corruption on the network; switch stalls; buffer
	// squeezes; and the recovery machinery (timeouts + bounded
	// retransmits) that repairs the injected damage. The zero value is
	// fault-free and leaves every hot path untouched.
	Fault faults.Spec
}

func (c Config) withDefaults() Config {
	if c.Params == (timing.Params{}) {
		c.Params = timing.Default()
	}
	if c.MPI == (timing.MPIParams{}) {
		c.MPI = timing.DefaultMPI()
	}
	return c
}

// Machine is one assembled system.
type Machine struct {
	cfg       Config
	eng       *sim.Engine
	net       *network.Network
	world     *mpi.World
	ctrls     []*core.Controller
	cpus      []*cpu.CPU
	quiescent []func()
}

// New builds a machine.
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	if !topology.ValidNodeCount(cfg.Nodes) {
		panic(fmt.Sprintf("machine: invalid node count %d", cfg.Nodes))
	}
	m := &Machine{cfg: cfg, eng: sim.NewEngine()}
	fs := cfg.Fault.Normalize()
	if err := fs.Validate(); err != nil {
		panic(fmt.Sprintf("machine: %v", err))
	}
	// One message pool serves the whole machine: controllers allocate
	// from it, the network's release points feed it. Safe because every
	// machine handler is Controller.Deliver, which never retains a
	// delivered message past the handler call.
	pool := &msg.Pool{}
	m.net = network.New(m.eng, network.Config{
		Nodes:     cfg.Nodes,
		Stages:    cfg.Stages,
		Multicast: cfg.Multicast,
		Params:    cfg.Params,
		Pool:      pool,
		Injector:  fs.Compile(cfg.Nodes),
	})
	m.world = mpi.New(m.eng, cfg.Nodes, cfg.MPI)
	m.ctrls = make([]*core.Controller, cfg.Nodes)
	m.cpus = make([]*cpu.CPU, cfg.Nodes)
	// Contiguous slabs instead of per-node heap records: two allocations
	// cover all 1024 nodes' controller and processor hot state, keeping
	// per-node counters and module clocks dense in memory.
	ctrlSlab := make([]core.Controller, cfg.Nodes)
	cpuSlab := make([]cpu.CPU, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		node := topology.NodeID(i)
		m.ctrls[i] = &ctrlSlab[i]
		m.ctrls[i].Init(m.eng, m.net, core.Config{
			Node:                node,
			Nodes:               cfg.Nodes,
			Params:              cfg.Params,
			Mode:                cfg.Mode,
			Cache:               cfg.Cache,
			SinglecastThreshold: cfg.SinglecastThreshold,
			UpdateMode:          cfg.UpdateMode,
			Faults:              cfg.Faults,
			Pool:                pool,
			DenseDirectory:      cfg.DenseDirectory,
			RequestTimeout:      fs.Timeout,
			RetransmitLimit:     fs.Retries,
			ModuleBufEntries:    fs.ModuleBuf,
		})
		m.net.Attach(node, m.ctrls[i].Deliver)
		cpuCfg := cfg.CPU
		cpuCfg.Node = node
		cpuCfg.Params = cfg.Params
		m.cpus[i] = &cpuSlab[i]
		m.cpus[i].Init(m.eng, m.ctrls[i], m.world, cpuCfg)
	}
	return m
}

// Engine exposes the event engine (examples and tests drive it).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Network exposes the interconnect.
func (m *Machine) Network() *network.Network { return m.net }

// Controller returns node n's coherence controller.
func (m *Machine) Controller(n topology.NodeID) *core.Controller { return m.ctrls[n] }

// CPU returns node n's processor.
func (m *Machine) CPU(n topology.NodeID) *cpu.CPU { return m.cpus[n] }

// World exposes the message-passing world.
func (m *Machine) World() *mpi.World { return m.world }

// Nodes returns the machine size.
func (m *Machine) Nodes() int { return m.cfg.Nodes }

// SetTracer installs a protocol event tracer on every controller (nil
// removes it).
func (m *Machine) SetTracer(t core.Tracer) {
	for _, c := range m.ctrls {
		c.SetTracer(t)
	}
}

// TrackValues attaches a machine-wide data-value tracker reporting to
// obs and returns it. The tracker mirrors block data movement through
// every controller so a consistency oracle (internal/fuzz) can check
// that loads observe the values coherence order requires.
func (m *Machine) TrackValues(obs core.ValueObserver) *core.ValueTracker {
	vt := core.NewValueTracker(obs)
	for _, c := range m.ctrls {
		c.SetValueTracker(vt)
	}
	return vt
}

// OnQuiescent registers fn to be invoked at every quiescent point: each
// time the event queue drains during Run — once at the end of a single
// Run, and once per round for a driver that injects work in rounds.
// Callbacks run with the machine idle, so Machine.Validate holds inside
// them.
func (m *Machine) OnQuiescent(fn func()) {
	m.quiescent = append(m.quiescent, fn)
	if len(m.quiescent) == 1 {
		m.eng.SetIdleFunc(func() {
			for _, f := range m.quiescent {
				f()
			}
		})
	}
}

// AutoValidate arranges for Validate to run at every quiescent point
// and returns a getter for the first violation found (nil so far).
// Callers — the fuzzer, tests, long workload harnesses — no longer
// hand-roll idle detection around Validate.
func (m *Machine) AutoValidate() func() error {
	var first error
	m.OnQuiescent(func() {
		if first == nil {
			first = m.Validate()
		}
	})
	return func() error { return first }
}

// LatencyHistograms merges every node's per-request-kind transaction
// latency distributions.
func (m *Machine) LatencyHistograms() map[msg.Kind]*stats.Histogram {
	merged := make(map[msg.Kind]*stats.Histogram)
	for _, c := range m.ctrls {
		lats := c.Latencies()
		kinds := make([]msg.Kind, 0, len(lats))
		for kind := range lats { //cenju4:order-insensitive — keys are sorted below
			kinds = append(kinds, kind)
		}
		slices.Sort(kinds)
		for _, kind := range kinds {
			dst := merged[kind]
			if dst == nil {
				dst = &stats.Histogram{}
				merged[kind] = dst
			}
			dst.Merge(lats[kind])
		}
	}
	return merged
}

// MetricsInto assembles the machine's observability registry into reg:
// simulation counters (virtual end time, events fired), the network's
// per-stage utilization, every controller's protocol counters and FIFO
// watermarks, and one latency histogram per transaction kind. Call it
// after a run; counters add, so one registry can absorb several
// machines (the experiment harness merges per-run registries in run
// order).
func (m *Machine) MetricsInto(reg *metrics.Registry) {
	reg.Counter("sim/events").Add(m.eng.Fired())
	reg.Gauge("sim/time-ns").Peak(int64(m.eng.Now()))
	reg.Gauge("sim/nodes").Peak(int64(m.cfg.Nodes))
	m.net.MetricsInto(reg)
	if inj := m.net.Injector(); inj != nil {
		inj.MetricsInto(reg)
	}
	for _, c := range m.ctrls {
		c.MetricsInto(reg)
	}
	lats := m.LatencyHistograms()
	kinds := make([]msg.Kind, 0, len(lats))
	for kind := range lats { //cenju4:order-insensitive — keys are sorted below
		kinds = append(kinds, kind)
	}
	slices.Sort(kinds)
	for _, kind := range kinds {
		reg.Histogram("latency/" + kind.String()).Merge(lats[kind])
	}
}

// Metrics returns a fresh registry populated by MetricsInto.
func (m *Machine) Metrics() *metrics.Registry {
	reg := metrics.New()
	m.MetricsInto(reg)
	return reg
}

// Result summarizes one run.
type Result struct {
	// Time is the makespan: the latest program completion.
	Time sim.Time
	// PerNode holds each processor's execution statistics.
	PerNode []cpu.Stats
	// Protocol holds each controller's coherence statistics.
	Protocol []core.Stats
	// Network is the interconnect's counters.
	Network network.Stats
	// MPI is the message-passing counters.
	MPI mpi.Stats
	// Events is the number of simulation events executed.
	Events uint64
}

// launch starts every program and returns the per-node completion
// flags the watchdog reads at quiescence.
func (m *Machine) launch(progs []cpu.Program) []bool {
	if len(progs) != m.cfg.Nodes {
		panic(fmt.Sprintf("machine: %d programs for %d nodes", len(progs), m.cfg.Nodes))
	}
	done := make([]bool, m.cfg.Nodes)
	for i, p := range progs {
		i := i
		m.cpus[i].Run(p, func() { done[i] = true })
	}
	return done
}

func allDone(done []bool) bool {
	for _, ok := range done {
		if !ok {
			return false
		}
	}
	return true
}

// Run executes one program per node to completion and returns the
// aggregated result. len(progs) must equal the node count. Quiescence
// with unfinished programs panics with a *DeadlockError carrying the
// watchdog's stuck-state diagnosis; callers that want it as a value
// use RunContext.
func (m *Machine) Run(progs []cpu.Program) Result {
	done := m.launch(progs)
	m.eng.Run()
	if !allDone(done) {
		panic(m.deadlock(done))
	}
	return m.Snapshot()
}

// ErrEventBudget is returned by RunContext when a run fires more
// events than its budget allows. The serve layer maps it to an
// over-limit rejection so one pathological spec cannot monopolize an
// execution worker.
var ErrEventBudget = errors.New("machine: event budget exhausted")

// runPollEvents is how many events RunContext executes between
// context/budget checks. Large enough that the checks are invisible in
// profiles, small enough that a cancelled job stops within
// microseconds of wall time.
const runPollEvents = 4096

// RunContext is Run with an abort path: between bounded event chunks
// it polls ctx and an optional event budget (0 = unlimited), so a
// caller can impose a wall-clock timeout (context.WithTimeout) or an
// operation ceiling on an otherwise opaque simulation. On abort the
// machine is mid-flight and must be discarded — only the error is
// meaningful. A run that completes is indistinguishable from Run: the
// chunked loop executes the identical event sequence (see
// sim.Engine.RunChunk), so digests and metrics are unaffected.
// Unlike Run, a watchdog trip surfaces as a returned *DeadlockError
// (classified with errors.Is(err, ErrDeadlock)), not a panic — the
// serve and chaos layers report the diagnosis instead of crashing.
func (m *Machine) RunContext(ctx context.Context, progs []cpu.Program, maxEvents uint64) (Result, error) {
	done := m.launch(progs)
	var fired uint64
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		limit := uint64(runPollEvents)
		if maxEvents != 0 {
			// Shrink the final chunk to the remaining budget plus one:
			// the extra event is what proves the budget is exceeded.
			if rem := maxEvents - fired; rem < limit {
				limit = rem + 1
			}
		}
		n, more := m.eng.RunChunk(limit)
		fired += n
		if maxEvents != 0 && fired > maxEvents {
			return Result{}, fmt.Errorf("%w (%d events fired, budget %d)", ErrEventBudget, fired, maxEvents)
		}
		if !more {
			break
		}
	}
	if !allDone(done) {
		return Result{}, m.deadlock(done)
	}
	return m.Snapshot(), nil
}

// Snapshot collects statistics without running.
func (m *Machine) Snapshot() Result {
	r := Result{
		PerNode:  make([]cpu.Stats, m.cfg.Nodes),
		Protocol: make([]core.Stats, m.cfg.Nodes),
		Network:  m.net.Stats(),
		MPI:      m.world.Stats(),
		Events:   m.eng.Fired(),
	}
	for i := 0; i < m.cfg.Nodes; i++ {
		r.PerNode[i] = m.cpus[i].Stats()
		r.Protocol[i] = m.ctrls[i].Stats()
		if r.PerNode[i].EndTime > r.Time {
			r.Time = r.PerNode[i].EndTime
		}
	}
	return r
}

// Totals aggregates the per-node CPU statistics.
func (r Result) Totals() cpu.Stats {
	var t cpu.Stats
	for _, s := range r.PerNode {
		t.Instructions += s.Instructions
		t.MemAccesses += s.MemAccesses
		t.PrivateAccesses += s.PrivateAccesses
		t.LocalAccesses += s.LocalAccesses
		t.RemoteAccesses += s.RemoteAccesses
		t.Misses += s.Misses
		t.PrivateMisses += s.PrivateMisses
		t.LocalMisses += s.LocalMisses
		t.RemoteMisses += s.RemoteMisses
		t.BusyTime += s.BusyTime
		t.SyncTime += s.SyncTime
	}
	return t
}
