package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"cenju4/internal/experiments"
	"cenju4/internal/fuzz"
	"cenju4/internal/machine"
	"cenju4/internal/metrics"
	"cenju4/internal/npb"
)

// iteration is the outcome of one pass over a workload's input.
type iteration struct {
	// wall runs from the first setup call to the verified output
	// (paper-quick: the ten steps' times summed, its setup stand-in and
	// the host probes between steps timed apart).
	wall time.Duration
	// setup is the time spent in the workload's public setup calls.
	setup time.Duration
	// probes are the host probe times measured around the iteration,
	// outside its clocks (probe.go).
	probes []time.Duration
	// jobs holds each independent unit's host latency (a 1024-node run,
	// a fuzz case, a paper step).
	jobs []time.Duration
	// attempted counts output checks; failed counts checks that did
	// not hold (wrong digest or hash, oracle violation, validation
	// error, panic). failures describes the first few.
	attempted, failed int
	failures          []string
	// Traced iterations only: the merged protocol/network registry and
	// the processor totals the registry does not carry.
	reg                 *metrics.Registry
	memAccesses, misses uint64
}

func (it *iteration) check(what string, err error) {
	it.attempted++
	if err != nil {
		it.failed++
		if len(it.failures) < 5 {
			it.failures = append(it.failures, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

// workload is one named benchmark input. run executes one iteration;
// tr is nil when tracing is off, and traced iterations also collect
// the layer counters.
type workload struct {
	name string
	run  func(seed uint64, tr *tracer) iteration
}

func workloads() []workload {
	return []workload{
		{"cg-1024", func(_ uint64, tr *tracer) iteration { return runCG(tr, cgDigest) }},
		{"fuzz-matrix", runFuzzMatrix},
		{"paper-quick", func(_ uint64, tr *tracer) iteration { return runPaper(tr, paperHashes) }},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- cg-1024 ----

// cgIterations is the CG time-step count of one cg-1024 iteration; it
// sets the length of one 1024-node run.
const cgIterations = 2

// cgDigest is machine.Digest of the cg-1024 run. A change that alters
// the simulated result fails this check instead of counting as faster.
const cgDigest = "59a01d5387bddef20cb48af9fc4d353e8283097accf4f204ad2f934c31610908"

// runCG builds and runs NPB CG dsm(2) with data mappings at quarter
// Class A scale on the full 1024-node machine, then validates the
// directories and compares the result digest with want.
func runCG(tr *tracer, want string) (it iteration) {
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			it.check("cg-1024", fmt.Errorf("panic: %v", p))
		}
		it.wall = time.Since(start)
		it.jobs = []time.Duration{it.wall}
	}()
	endSetup := tr.begin("setup")
	end := tr.begin("npb.build")
	w, err := npb.Build(npb.Options{
		App: npb.CG, Variant: npb.DSM2, Nodes: 1024,
		DataMapping: true, Iterations: cgIterations, Scale: 0.25,
	})
	end()
	if err != nil {
		endSetup()
		it.setup = time.Since(start)
		it.check("cg-1024 build", err)
		return it
	}
	end = tr.begin("machine.new")
	m := machine.New(machine.Config{Nodes: 1024, Multicast: true, UpdateMode: w.UpdateMode})
	end()
	endSetup()
	it.setup = time.Since(start)

	endRun := tr.begin("run")
	end = tr.begin("machine.run")
	r := m.Run(w.Progs)
	end()
	end = tr.begin("machine.validate")
	err = m.Validate()
	if err == nil {
		if got := machine.Digest(r); got != want {
			err = fmt.Errorf("digest %s, pinned %s", got, want)
		}
	}
	end()
	endRun()
	it.check("cg-1024", err)
	if tr != nil {
		it.reg = m.Metrics()
		t := r.Totals()
		it.memAccesses, it.misses = t.MemAccesses, t.Misses
	}
	return it
}

// ---- fuzz-matrix ----

// Fuzz matrix shape: every traffic pattern against every protocol cell
// (queuing/nack x multicast on/off x update on/off x 2/4/6 stages) on
// 8-node machines, one case after another.
const (
	fuzzNodes  = 8
	fuzzOps    = 4000
	fuzzRounds = 4
)

// runFuzzMatrix generates and runs every case of the matrix with the
// consistency oracle and quiescent-point validation on. A case fails
// on any oracle violation, validation error or captured panic.
func runFuzzMatrix(seed uint64, tr *tracer) (it iteration) {
	start := time.Now()
	i := 0
	for _, p := range fuzz.AllPatterns() {
		for _, cell := range fuzz.DefaultCells() {
			c := fuzz.Case{
				Seed: fuzz.CaseSeed(seed, i), Nodes: fuzzNodes, Ops: fuzzOps,
				Rounds: fuzzRounds, Pattern: p, Cell: cell, Metrics: tr != nil,
			}
			i++
			caseStart := time.Now()
			endSetup := tr.begin("setup")
			end := tr.begin("fuzz.generate")
			ops := fuzz.Generate(c.Pattern, c.Seed, c.Nodes, c.Ops)
			end()
			endSetup()
			it.setup += time.Since(caseStart)
			endRun := tr.begin("run")
			end = tr.begin("fuzz.case")
			res := fuzz.RunOps(c, ops)
			end()
			endRun()
			it.jobs = append(it.jobs, time.Since(caseStart))
			var err error
			if res.Failed() {
				err = fmt.Errorf("%d oracle violations, validation %q, panic %q",
					res.TotalViolations, res.ValidateErr, res.Panic)
			}
			it.check(c.String(), err)
			if tr != nil {
				if it.reg == nil {
					it.reg = metrics.New()
				}
				it.reg.Merge(res.Metrics)
				it.memAccesses += uint64(res.Loads + res.Stores)
				it.misses += res.Misses
			}
		}
	}
	it.wall = time.Since(start)
	return it
}

// ---- paper-quick ----

// ablationSeed is cenju4-bench's default sharer-placement seed for the
// imprecision ablation.
const ablationSeed = 7

// paperHashes pins, per step, the first 16 hex digits of the SHA-256 of
// the step's section of the cenju4-bench report (header line included).
// The sections in step order are exactly what `cenju4-bench -parallel 1`
// prints.
var paperHashes = map[string]string{
	"table1":     "e11c785335ee009b",
	"fig4":       "52da593ca1e81a58",
	"table2":     "7428d8932ad8344c",
	"fig10":      "63365b190436a441",
	"fig11":      "f8092720d62ba0c1",
	"fig12":      "4248aec148c1e95d",
	"table3":     "a4d45f9f56800dc0",
	"table4":     "49caf4232eb74728",
	"futurework": "ff3e91bf47d6ac4e",
	"ablations":  "acf76cc0bafcda7a",
}

// paperStep is one of the ten steps cenju4-bench runs.
type paperStep struct {
	name string
	run  func(cfg experiments.Config, it *iteration) string
}

var paperSteps = []paperStep{
	{"table1", func(experiments.Config, *iteration) string { return experiments.Table1().Render() }},
	{"fig4", func(c experiments.Config, _ *iteration) string { return experiments.Figure4(c).Render() }},
	{"table2", func(experiments.Config, *iteration) string { return experiments.Table2().Render() }},
	{"fig10", func(experiments.Config, *iteration) string { return experiments.Figure10().Render() }},
	{"fig11", func(c experiments.Config, _ *iteration) string { return experiments.Figure11(c).Render() }},
	{"fig12", func(c experiments.Config, _ *iteration) string { return experiments.Figure12(c).Render() }},
	{"table3", func(c experiments.Config, _ *iteration) string { return experiments.Table3(c).Render() }},
	{"table4", func(c experiments.Config, it *iteration) string {
		r := experiments.Table4(c)
		// The registry has no processor totals; Table 4's dsm(2) runs
		// are the paper-quick runs that expose them.
		for _, row := range r.Rows {
			it.memAccesses += row.MemAccesses
			it.misses += uint64(row.MissRatio*float64(row.MemAccesses) + 0.5)
		}
		return r.Render()
	}},
	{"futurework", func(c experiments.Config, _ *iteration) string { return experiments.FutureWork(c).Render() }},
	{"ablations", func(c experiments.Config, _ *iteration) string {
		var b strings.Builder
		b.WriteString(experiments.AblationNack(32).Render())
		b.WriteString("\n")
		b.WriteString(experiments.AblationSinglecastThreshold(c, 64).Render())
		b.WriteString("\n")
		b.WriteString(experiments.AblationImprecision(c, 1024, ablationSeed).Render())
		return b.String()
	}},
}

// One pass of paperSetup takes a few milliseconds, so a single
// collection or a slow scheduler tick moves it by half. A paper-quick iteration takes
// paperSetupSamples samples, each timing paperSetupPasses passes as one
// sum, and reports their median divided by paperSetupPasses.
const (
	paperSetupSamples = 5
	paperSetupPasses  = 10
)

// paperSetup makes the public setup calls of the Figure 11 sweep, the
// widest application sweep of the reproduction: npb.Build and
// machine.New for the mpi, dsm(1) and dsm(2) programs (dsm forms with
// and without data mappings) of every application at its paper machine
// size and the Quick scale. paper-quick builds its own machines inside
// internal/experiments, so this times the same work from outside; its
// output is not an input to the steps.
func paperSetup(cfg experiments.Config) error {
	variants := []struct {
		v      npb.Variant
		mapped bool
	}{{npb.MPI, false}, {npb.DSM1, false}, {npb.DSM1, true}, {npb.DSM2, false}, {npb.DSM2, true}}
	for _, app := range npb.Apps() {
		nodes := 128
		if app == npb.BT || app == npb.SP {
			nodes = 64
		}
		for _, v := range variants {
			w, err := npb.Build(npb.Options{
				App: app, Variant: v.v, Nodes: nodes, DataMapping: v.mapped,
				Iterations: cfg.Iterations, Scale: cfg.Scale,
			})
			if err != nil {
				return err
			}
			m := machine.New(machine.Config{Nodes: nodes, Multicast: true})
			if len(w.Progs) != m.Nodes() {
				return fmt.Errorf("%v/%v: %d programs for %d nodes", app, v.v, len(w.Progs), m.Nodes())
			}
		}
	}
	return nil
}

// runPaper runs the ten steps of cenju4-bench under the Quick preset on
// one goroutine and checks each step's rendered section against want.
// The setup stand-in runs first and outside the iteration's wall time,
// which sums the ten steps only.
func runPaper(tr *tracer, want map[string]string) (it iteration) {
	cfg := experiments.Quick()
	cfg.Parallel = 1
	var ob *experiments.Observation
	if tr != nil {
		ob = &experiments.Observation{}
		cfg.Observe = ob
	}

	endSetup := tr.begin("setup")
	var samples []float64
	for len(samples) < paperSetupSamples {
		t := time.Now()
		var err error
		for i := 0; i < paperSetupPasses && err == nil; i++ {
			err = paperSetup(cfg)
		}
		if err != nil {
			it.check("paper-quick setup", err)
			break
		}
		samples = append(samples, time.Since(t).Seconds()/paperSetupPasses)
	}
	endSetup()
	if len(samples) > 0 {
		it.setup = time.Duration(median(samples) * 1e9)
	}

	endRun := tr.begin("run")
	for _, s := range paperSteps {
		// A step takes up to seconds, so the host's speed is sampled
		// before each one, not only before the iteration.
		it.probes = append(it.probes, hostProbe())
		stepStart := time.Now()
		end := tr.begin("experiments." + s.name)
		section, err := renderStep(cfg, s, &it)
		end()
		it.jobs = append(it.jobs, time.Since(stepStart))
		if err == nil {
			if got := sectionHash(s.name, cfg, section); got != want[s.name] {
				err = fmt.Errorf("report hash %s, pinned %q", got, want[s.name])
			}
		}
		it.check("paper-quick "+s.name, err)
		it.wall += time.Since(stepStart)
	}
	endRun()
	if ob != nil {
		it.reg = ob.Metrics
	}
	return it
}

// renderStep runs one step, turning the panics experiments use to
// report coherence violations into a failed check.
func renderStep(cfg experiments.Config, s paperStep, it *iteration) (out string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return s.run(cfg, it), nil
}

// sectionHash hashes a step's section exactly as cenju4-bench prints it.
func sectionHash(name string, cfg experiments.Config, body string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("==== %s (scale %.2f, %d iters) ====\n%s\n",
		name, cfg.Scale, cfg.Iterations, body)))
	return hex.EncodeToString(sum[:8])
}
