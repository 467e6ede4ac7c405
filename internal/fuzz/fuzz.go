package fuzz

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"cenju4/internal/core"
	"cenju4/internal/cpu"
	"cenju4/internal/faults"
	"cenju4/internal/machine"
	"cenju4/internal/metrics"
	"cenju4/internal/runner"
	"cenju4/internal/sim"
	"cenju4/internal/topology"
	"cenju4/internal/trace"
)

// Cell is one point of the protocol configuration matrix.
type Cell struct {
	Mode      core.Mode
	Multicast bool
	Update    bool
	Stages    int
}

func (c Cell) String() string {
	mc, upd := "mc-", "upd-"
	if c.Multicast {
		mc = "mc+"
	}
	if c.Update {
		upd = "upd+"
	}
	return fmt.Sprintf("%v/%s/%s/s%d", c.Mode, mc, upd, c.Stages)
}

// Matrix is the protocol configuration matrix over the given network
// stage counts: {queuing, nack} x {multicast on, off} x {update off,
// on} x stages, in that nesting order. A sweep's per-case seeds follow
// its case order, so every subset of the matrix is taken in this order.
func Matrix(stages []int) []Cell {
	var cells []Cell
	for _, mode := range []core.Mode{core.ModeQueuing, core.ModeNack} {
		for _, mc := range []bool{true, false} {
			for _, upd := range []bool{false, true} {
				for _, st := range stages {
					cells = append(cells, Cell{Mode: mode, Multicast: mc, Update: upd, Stages: st})
				}
			}
		}
	}
	return cells
}

// DefaultCells is the full matrix over 2, 4 and 6 network stages.
func DefaultCells() []Cell { return Matrix([]int{2, 4, 6}) }

// updatePredicate marks every fourth shared block for the update
// protocol, so update cells exercise both protocols side by side.
func updatePredicate(a topology.Addr) bool {
	return a.Shared() && a.BlockIndex()%4 == 1
}

// Case fully determines one fuzz execution.
type Case struct {
	Seed    uint64
	Nodes   int
	Ops     int
	Rounds  int
	Pattern Pattern
	Cell    Cell
	// Faults injects deliberate protocol bugs (self-tests only).
	Faults *core.Faults
	// Fault is the deterministic network fault plan (zero = fault-free).
	Fault faults.Spec
	// MaxEvents bounds the run (0 = unlimited); overruns surface as a
	// budget abort in Panic.
	MaxEvents uint64
	// Trace attaches a protocol trace collector; on failure the result
	// carries the delivery trace for the first violating block.
	Trace bool
	// Metrics collects the machine's observability registry into the
	// result regardless of outcome.
	Metrics bool
}

func (c Case) String() string {
	return fmt.Sprintf("%v %v seed=%d ops=%d", c.Pattern, c.Cell, c.Seed, c.Ops)
}

// Result is the outcome of one case.
type Result struct {
	Case       Case
	Loads      int
	Stores     int
	Violations []Violation
	// TotalViolations counts everything including those beyond the
	// recording cap.
	TotalViolations int
	ValidateErr     string
	Panic           string
	// Watchdog is set when the machine's quiescence watchdog aborted
	// the case: the fault plan was unrecoverable (Panic carries the
	// stuck-state diagnosis). Chaos sweeps expect it for such plans.
	Watchdog bool
	// Digest fingerprints the completed run's result (empty when the
	// case aborted); chaos sweeps compare it across parallelism levels.
	Digest     string
	Quiescents int
	SimTime    sim.Time
	Events     uint64
	Misses     uint64
	// Shrink results (set by Run when a failing case shrinks).
	Reproducer string
	ShrinkRuns int
	ShrunkOps  int
	TraceDump  string
	// Metrics is the case's registry (only when Case.Metrics).
	Metrics *metrics.Registry
	// Trace is the full protocol event collector (only when Case.Trace);
	// export it with trace.WriteChrome.
	Trace *trace.Collector
}

// Failed reports whether the oracle, validator, or simulator flagged
// the case.
func (r *Result) Failed() bool {
	return r.TotalViolations > 0 || r.ValidateErr != "" || r.Panic != ""
}

// Options parameterizes a fuzz run.
type Options struct {
	Seed  uint64
	Nodes int
	// Ops is the access budget per case.
	Ops int
	// Rounds splits each case's streams into quiescent rounds; the
	// machine validates at every round boundary.
	Rounds   int
	Patterns []Pattern
	Cells    []Cell
	// Shrink minimizes failing cases to a reproducer.
	Shrink bool
	// MaxShrinkRuns bounds the shrinker's re-executions per failure.
	MaxShrinkRuns int
	// Faults forwards injected bugs to every case (self-tests).
	Faults *core.Faults
	// Fault forwards a deterministic network fault plan to every case.
	Fault faults.Spec
	// MaxEvents bounds every case's event count (0 = unlimited). Fault
	// sweeps set it: an unrecoverable plan under the nack protocol
	// livelocks (endless nack/retry around the wedged block) instead of
	// going quiescent, and the budget is what turns that into a bounded
	// abort.
	MaxEvents uint64
	// CollectMetrics attaches a metrics registry to every case; merge
	// them with Report.MergedMetrics.
	CollectMetrics bool
	// Progress, when set, receives one line per completed case. Lines
	// are emitted in case order regardless of Parallel.
	Progress io.Writer
	// Parallel is the number of cases run concurrently (each on its own
	// machine). Zero means GOMAXPROCS; 1 forces sequential. The report
	// is byte-identical at every setting: per-case seeds derive from the
	// case index and results merge in index order.
	Parallel int
}

// Cases returns the sweep Run executes: o's zero fields filled with
// their defaults, then one Case per pattern x cell (patterns outer),
// each with its CaseSeed and o's per-case fields. Options Run cannot
// execute are an error: a node count or a cell's stage count the
// machine cannot be built with (machine.Config.Validate's
// *machine.InvalidNodeCountError and *machine.InvalidStageCountError,
// or its error for a malformed fault plan), and a negative Ops or
// Rounds.
func (o Options) Cases() ([]Case, error) {
	_, cases, err := o.expand()
	return cases, err
}

// expand is Cases, also returning the filled options.
func (o Options) expand() (Options, []Case, error) {
	if o.Nodes == 0 {
		o.Nodes = 8
	}
	if o.Ops == 0 {
		o.Ops = 2000
	}
	if o.Rounds == 0 {
		o.Rounds = 4
	}
	if len(o.Patterns) == 0 {
		o.Patterns = AllPatterns()
	}
	if len(o.Cells) == 0 {
		o.Cells = DefaultCells()
	}
	if o.MaxShrinkRuns == 0 {
		o.MaxShrinkRuns = 300
	}
	if o.Ops < 0 {
		return o, nil, fmt.Errorf("fuzz: negative op count %d", o.Ops)
	}
	if o.Rounds < 0 {
		return o, nil, fmt.Errorf("fuzz: negative round count %d", o.Rounds)
	}
	for _, c := range o.Cells {
		if err := (machine.Config{Nodes: o.Nodes, Stages: c.Stages, Fault: o.Fault}).Validate(); err != nil {
			return o, nil, err
		}
	}
	var cases []Case
	for _, p := range o.Patterns {
		for _, cell := range o.Cells {
			cases = append(cases, Case{
				Seed:      CaseSeed(o.Seed, len(cases)),
				Nodes:     o.Nodes,
				Ops:       o.Ops,
				Rounds:    o.Rounds,
				Pattern:   p,
				Cell:      cell,
				Faults:    o.Faults,
				Fault:     o.Fault,
				MaxEvents: o.MaxEvents,
				Metrics:   o.CollectMetrics,
			})
		}
	}
	return o, cases, nil
}

// CaseSeed derives the i-th case's seed from the run seed
// (runner.DeriveSeed's splitmix64 mixing: distinct per-case seeds from
// one user seed, stable across runs).
func CaseSeed(seed uint64, i int) uint64 {
	return runner.DeriveSeed(seed, i)
}

// Run executes Cases and returns the report, or Cases' error before
// any case runs. Cases are sharded across Options.Parallel workers;
// because every case's seed derives from its matrix index and results
// merge in index order, the report is byte-identical at every
// parallelism level.
func Run(o Options) (*Report, error) {
	o, cases, err := o.expand()
	if err != nil {
		return nil, err
	}
	results, panics := runner.MapEach(
		runner.Options{
			Parallel: o.Parallel,
			Label:    func(i int) string { return cases[i].String() },
		},
		len(cases),
		func(i int) *Result {
			c := cases[i]
			ops := Generate(c.Pattern, c.Seed, c.Nodes, c.Ops)
			res := RunOps(c, ops)
			if res.Failed() && o.Shrink {
				min, runs := Shrink(c, ops, o.MaxShrinkRuns)
				res.Reproducer = FormatOps(min)
				res.ShrinkRuns = runs
				l, s := CountOps(min)
				res.ShrunkOps = l + s
			}
			return res
		},
		func(i int, res *Result) {
			if o.Progress != nil {
				status := "ok"
				if res.Failed() {
					status = "FAIL"
				}
				fmt.Fprintf(o.Progress, "%-4s %v\n", status, cases[i])
			}
		})
	// RunOps captures simulator panics itself; a runner-level panic means
	// the harness around it (generation, shrinking) blew up. Record it as
	// a failed result so the report stays complete instead of killing
	// the sweep.
	for _, p := range panics {
		results[p.Index] = &Result{Case: cases[p.Index], Panic: fmt.Sprintf("harness: %v", p.Value)}
	}
	return &Report{Options: o, Results: results}, nil
}

// RunOps executes one case on the given streams. It never panics: a
// watchdog trip, an exhausted event budget and a simulator panic all
// end the case with Panic set.
func RunOps(c Case, ops [][]cpu.Op) (res *Result) {
	res = &Result{Case: c}
	res.Loads, res.Stores = CountOps(ops)

	var update func(topology.Addr) bool
	if c.Cell.Update {
		update = updatePredicate
	}
	m := machine.New(machine.Config{
		Nodes:      c.Nodes,
		Stages:     c.Cell.Stages,
		Multicast:  c.Cell.Multicast,
		Mode:       c.Cell.Mode,
		UpdateMode: update,
		Faults:     c.Faults,
		Fault:      c.Fault,
		// A short quantum makes the processors interleave at fine grain,
		// which is where protocol races live.
		CPU: cpu.Config{Quantum: 1000},
	})
	orc := newOracle(update)
	vt := m.TrackValues(orc)
	firstInvalid := m.AutoValidate()
	var col *trace.Collector
	if c.Trace {
		col = trace.NewCollector(8192)
		m.SetTracer(col.Tracer())
	}

	finish := func() {
		res.Violations = orc.Violations()
		res.TotalViolations = orc.total
		res.Trace = col
		if c.Metrics {
			res.Metrics = m.Metrics()
		}
		if err := firstInvalid(); err != nil {
			res.ValidateErr = err.Error()
		}
		if col != nil && res.Failed() {
			if len(res.Violations) > 0 {
				var b strings.Builder
				fmt.Fprintf(&b, "deliveries for %v:\n", res.Violations[0].Addr)
				for _, ev := range col.Deliveries(res.Violations[0].Addr) {
					fmt.Fprintf(&b, "  %v\n", ev)
				}
				res.TraceDump = b.String()
			} else {
				res.TraceDump = col.String()
			}
		}
	}
	defer func() {
		if r := recover(); r != nil {
			res.Panic = fmt.Sprint(r)
			finish()
		}
	}()

	rounds := c.Rounds
	if rounds < 1 {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		progs := make([]cpu.Program, c.Nodes)
		for n := range progs {
			progs[n] = &cpu.SliceProgram{Ops: roundSlice(ops[n], r, rounds)}
		}
		mr, err := m.RunContext(context.Background(), progs, c.MaxEvents)
		if err != nil {
			res.Panic = err.Error()
			res.Watchdog = errors.Is(err, machine.ErrDeadlock)
			finish()
			return res
		}
		res.Quiescents++
		res.SimTime = mr.Time
		res.Events = mr.Events
		res.Misses = mr.Totals().Misses
		res.Digest = machine.Digest(mr)
		if orc.total > 0 || firstInvalid() != nil {
			break // already failing: stop early so shrinking stays cheap
		}
	}
	if orc.total == 0 && firstInvalid() == nil {
		orc.checkFinal(m, vt, Universe(ops))
	}
	finish()
	return res
}

// roundSlice returns stream r of rounds equal chunks of ops.
func roundSlice(ops []cpu.Op, r, rounds int) []cpu.Op {
	chunk := (len(ops) + rounds - 1) / rounds
	lo := r * chunk
	if lo >= len(ops) {
		return nil
	}
	hi := lo + chunk
	if hi > len(ops) {
		hi = len(ops)
	}
	return ops[lo:hi]
}

// Report is the outcome of a full sweep.
type Report struct {
	Options Options
	Results []*Result
}

// MergedMetrics merges every case's registry in case order (nil when
// the sweep did not collect metrics). Case order is independent of
// Options.Parallel, so the merged report is too.
func (r *Report) MergedMetrics() *metrics.Registry {
	var merged *metrics.Registry
	for _, res := range r.Results {
		if res.Metrics == nil {
			continue
		}
		if merged == nil {
			merged = metrics.New()
		}
		merged.Merge(res.Metrics)
	}
	return merged
}

// Failed reports whether any case failed.
func (r *Report) Failed() bool {
	for _, res := range r.Results {
		if res.Failed() {
			return true
		}
	}
	return false
}

// Failures returns the failing cases.
func (r *Report) Failures() []*Result {
	var out []*Result
	for _, res := range r.Results {
		if res.Failed() {
			out = append(out, res)
		}
	}
	return out
}

// String renders the deterministic report: same seed and options yield
// byte-identical output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fuzz seed=%d nodes=%d ops/case=%d rounds=%d cases=%d\n",
		r.Options.Seed, r.Options.Nodes, r.Options.Ops, r.Options.Rounds, len(r.Results))
	if r.Options.Fault.Enabled() {
		fmt.Fprintf(&b, "fault plan: %v\n", r.Options.Fault)
	}
	var loads, stores int
	var events uint64
	for _, res := range r.Results {
		status := "ok  "
		if res.Failed() {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "%s %-17v %-24v seed=%-20d ld=%-6d st=%-6d miss=%-6d t=%v\n",
			status, res.Case.Pattern, res.Case.Cell, res.Case.Seed,
			res.Loads, res.Stores, res.Misses, res.SimTime)
		loads += res.Loads
		stores += res.Stores
		events += res.Events
		if !res.Failed() {
			continue
		}
		if res.Panic != "" {
			fmt.Fprintf(&b, "     panic: %s\n", res.Panic)
		}
		if res.ValidateErr != "" {
			fmt.Fprintf(&b, "     validate: %s\n", res.ValidateErr)
		}
		for _, v := range res.Violations {
			fmt.Fprintf(&b, "     violation: %v\n", v)
		}
		if res.TotalViolations > len(res.Violations) {
			fmt.Fprintf(&b, "     (+%d more violations)\n", res.TotalViolations-len(res.Violations))
		}
		if res.Reproducer != "" {
			fmt.Fprintf(&b, "     shrunk to %d ops in %d runs:\n", res.ShrunkOps, res.ShrinkRuns)
			for _, line := range strings.Split(strings.TrimRight(res.Reproducer, "\n"), "\n") {
				fmt.Fprintf(&b, "       %s\n", line)
			}
			fmt.Fprintf(&b, "     replay: -replay %d\n", res.Case.Seed)
		}
	}
	fails := len(r.Failures())
	fmt.Fprintf(&b, "total: %d loads, %d stores, %d events, %d/%d cases failed\n",
		loads, stores, events, fails, len(r.Results))
	return b.String()
}
