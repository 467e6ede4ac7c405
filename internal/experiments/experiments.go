// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4): Table 1 (directory scheme characteristics),
// Figure 4 (node-map precision), Table 2 (load latencies), Figure 10
// (store latencies with and without multicast/gathering), Figure 11
// (rewriting ratio and parallel efficiency), Figure 12 (speedups), and
// Tables 3 and 4 (application characteristics).
//
// Each experiment returns a structured result with a Render method that
// prints the same rows or series the paper reports, side by side with
// the paper's published values where the paper gives them numerically.
// cmd/cenju4-bench drives them all; bench_test.go wraps each in a
// testing.B benchmark.
package experiments

import (
	"fmt"
	"strings"

	"cenju4/internal/faults"
	"cenju4/internal/machine"
	"cenju4/internal/metrics"
	"cenju4/internal/runner"
	"cenju4/internal/sim"
	"cenju4/internal/trace"
)

// Config scales the application experiments (the latency and precision
// experiments are cheap and ignore it).
type Config struct {
	// Scale is the problem size relative to Class A.
	Scale float64
	// Iterations is the number of outer time steps per run.
	Iterations int
	// Trials is the Monte-Carlo trial count for Figure 4.
	Trials int
	// Seed drives the Figure 4 Monte-Carlo sweeps (panel (a) uses
	// Seed, panel (b) Seed+1). Randomness never comes from the global
	// math/rand source — the determinism analyzer forbids it — so a
	// run is reproduced by its config alone.
	Seed int64
	// Parallel is the number of worker goroutines the experiments shard
	// their independent simulation runs across (0 = GOMAXPROCS, 1 =
	// sequential). Every run builds its own machine and derives its
	// inputs from its run index, and results merge in run order, so the
	// rendered tables are byte-identical at every setting (asserted by
	// parallel_test.go, under -race in CI).
	Parallel int
	// Fault is the deterministic fault plan threaded into every
	// machine-building application run (zero = fault-free). Use
	// recoverable plans only: the application experiments assert
	// completion and coherence, so an unrecoverable plan trips the
	// machine watchdog and aborts the sweep.
	Fault faults.Spec
	// Observe, when non-nil, collects observability output from the
	// machine-building sweeps (the application experiments and the
	// future-work comparison; the analytic latency/precision experiments
	// have no full machines to observe). Workers return per-run payloads
	// and the sweep absorbs them in run order, so the merged registry and
	// stream list are identical at every Parallel setting.
	Observe *Observation
}

// Observation gathers a sweep's observability output: the merged
// metrics registry and, when TraceCap is positive, one protocol event
// stream per machine run for the Chrome-trace exporter.
type Observation struct {
	// TraceCap bounds each run's trace collector (0 disables trace
	// collection; metrics are always collected).
	TraceCap int
	// Metrics is the merged registry, created on first absorb.
	Metrics *metrics.Registry
	// Streams holds one entry per machine run, in run order.
	Streams []trace.Stream
}

// runObservation is the per-run payload a worker returns; the sweep
// absorbs it after the parallel map so no worker writes shared state.
type runObservation struct {
	reg    *metrics.Registry
	stream trace.Stream
}

// collector returns a bounded trace collector when tracing is
// requested; nil otherwise.
func (c Config) collector() *trace.Collector {
	if c.Observe == nil || c.Observe.TraceCap <= 0 {
		return nil
	}
	return trace.NewCollector(c.Observe.TraceCap)
}

// observe packages a finished run's registry and (optional) stream.
func (c Config) observe(m *machine.Machine, col *trace.Collector, label string) *runObservation {
	if c.Observe == nil {
		return nil
	}
	o := &runObservation{reg: m.Metrics()}
	if col != nil {
		o.stream = col.Stream(label)
	}
	return o
}

// absorb merges one run's payload, in the caller's (run) order.
func (ob *Observation) absorb(o *runObservation) {
	if ob == nil || o == nil {
		return
	}
	if ob.Metrics == nil {
		ob.Metrics = metrics.New()
	}
	ob.Metrics.Merge(o.reg)
	if ob.TraceCap > 0 {
		ob.Streams = append(ob.Streams, o.stream)
	}
}

// Quick returns a configuration that runs the full suite in tens of
// seconds (for tests and smoke runs). Shapes hold; absolute efficiency
// values are closer to the paper under Full.
func Quick() Config { return Config{Scale: 0.08, Iterations: 2, Trials: 60, Seed: 1} }

// Full returns the configuration used for EXPERIMENTS.md: Class A scale
// and enough iterations to amortize cold misses.
func Full() Config { return Config{Scale: 1.0, Iterations: 4, Trials: 200, Seed: 1} }

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = Quick().Scale
	}
	if c.Iterations == 0 {
		c.Iterations = Quick().Iterations
	}
	if c.Trials == 0 {
		c.Trials = Quick().Trials
	}
	if c.Seed == 0 {
		c.Seed = Quick().Seed
	}
	return c
}

// parOpts is the runner configuration for an experiment sweep.
func (c Config) parOpts() runner.Options { return runner.Options{Parallel: c.Parallel} }

// rethrow propagates the first captured worker panic. Experiment runs
// signal invalid configurations and coherence violations by panicking
// (see runOne), and the serial loops let those panics reach the caller;
// the worker pool captures them instead, so re-raise here to keep the
// contract.
func rethrow(panics []*runner.Panic) {
	if len(panics) > 0 {
		panic(panics[0].Error())
	}
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// us formats a latency in microseconds.
func us(t sim.Time) string { return fmt.Sprintf("%.2fus", t.Microseconds()) }

// table is a minimal text-table builder used by the Render methods.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}
