// Command cenju4-fuzz drives the coherence-traffic fuzzer and
// consistency oracle across the protocol configuration matrix.
//
// Usage:
//
//	cenju4-fuzz -seed 1 -ops 50000                    # full sweep
//	cenju4-fuzz -pattern hotspot,migratory -mode nack # one slice
//	cenju4-fuzz -replay 834259609813245009            # re-run one case
//	                                                    with trace dump
//	cenju4-fuzz -metrics-out m.json                   # merged case metrics
//	cenju4-fuzz -replay N -trace-out t.json           # Perfetto trace of
//	                                                    the replayed case
//	cenju4-fuzz -cpuprofile cpu.pprof -memprofile mem.pprof  # pprof files
//
// With -chaos the matrix runs once per fault plan (the preset grid, or
// the single -fault plan) and each plan is held to its contract:
// recoverable plans must pass the shadow-memory oracle (with
// -check-parallel, with byte-identical digests at -parallel 1), and
// unrecoverable plans must abort within the event budget — a
// quiescence-watchdog trip with a stuck-state diagnosis under the
// queuing protocol, an event-budget abort for the nack protocol's
// livelock. Chaos sweeps never shrink.
//
//	cenju4-fuzz -chaos -pattern hotspot,migratory -multicast on -update off -stages 4
//	cenju4-fuzz -chaos -fault drop-forwards       # one plan (watchdog expected)
//	cenju4-fuzz -chaos -fault 'drop=0.1,timeout=100000' -expect recover
//
// The run is deterministic: the same seed and flags reproduce a
// byte-identical report. On any oracle violation, invariant failure or
// deadlock the process exits 1 after printing the shrunk reproducer;
// with -chaos it exits 1 when any plan misses its contract.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"slices"
	"strings"

	"cenju4/cmd/internal/artifact"
	"cenju4/cmd/internal/profiling"
	"cenju4/internal/faults"
	"cenju4/internal/fuzz"
	"cenju4/internal/machine"
	"cenju4/internal/metrics"
)

// prof is package-level so the failure exits in replayCase can flush it.
var prof = profiling.Register(flag.CommandLine)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cenju4-fuzz: ")
	seed := flag.Uint64("seed", 1, "run seed; per-case seeds derive from it")
	ops := flag.Int("ops", 2000, "access budget per case")
	nodes := flag.Int("nodes", 8, "node count (power of two, <= 1024)")
	rounds := flag.Int("rounds", 4, "quiescent validation rounds per case")
	pattern := flag.String("pattern", "all", "traffic patterns (comma separated, or all): uniform, hotspot, partition, migratory, producer-consumer, false-sharing, eviction")
	mode := flag.String("mode", "all", "protocol mode: queuing, nack, all")
	multicast := flag.String("multicast", "all", "multicast: on, off, all")
	update := flag.String("update", "all", "update protocol: on, off, all")
	stages := flag.String("stages", "2,4,6", "network stage counts (comma separated)")
	noShrink := flag.Bool("noshrink", false, "skip shrinking failures to minimal reproducers")
	shrinkRuns := flag.Int("shrinkruns", 300, "max re-executions while shrinking one failure")
	replay := flag.Uint64("replay", 0, "re-run the one case with this per-case seed, protocol trace attached")
	quiet := flag.Bool("q", false, "suppress per-case progress lines")
	parallel := flag.Int("parallel", runtime.NumCPU(), "concurrent fuzz cases (1 = sequential; report and progress output are byte-identical at every setting)")
	fault := flag.String("fault", "", "deterministic fault plan: preset name or k=v spec; applied to every case, or with -chaos the one plan to sweep (default: the preset grid)")
	budget := flag.Uint64("budget", 0, fmt.Sprintf("per-case event budget (0 = unlimited, or %d with -chaos; set one when -fault may wedge nack-mode cases)", fuzz.DefaultChaosBudget))
	chaos := flag.Bool("chaos", false, "sweep the matrix under fault plans and hold each plan to its contract")
	expect := flag.String("expect", "auto", "with -chaos -fault, the plan's expected outcome: auto, recover, watchdog")
	checkParallel := flag.Bool("check-parallel", false, "with -chaos, re-run recoverable plans at -parallel 1 and compare digests")
	metricsOut := flag.String("metrics-out", "", "write the merged metrics registry of all cases as canonical JSON to this file")
	traceOut := flag.String("trace-out", "", "write the replayed case's Chrome-trace-event JSON to this file (requires -replay)")
	flag.Parse()
	if err := prof.Start(); err != nil {
		log.Fatal(err)
	}
	defer prof.Stop()

	if *traceOut != "" && *replay == 0 {
		log.Fatal("-trace-out requires -replay: full-matrix runs do not retain per-case event streams")
	}
	if *chaos && (*replay != 0 || *metricsOut != "") {
		log.Fatal("-chaos takes neither -replay nor -metrics-out")
	}
	if !*chaos && (*expect != "auto" || *checkParallel) {
		log.Fatal("-expect and -check-parallel require -chaos")
	}
	switch {
	case *expect != "auto" && *expect != "recover" && *expect != "watchdog":
		log.Fatalf("-expect: %q is not auto, recover, or watchdog", *expect)
	case *expect != "auto" && *fault == "":
		log.Fatal("-expect requires -fault: the preset grid carries its own expectations")
	}

	opts := fuzz.Options{
		Seed:           *seed,
		Nodes:          *nodes,
		Ops:            *ops,
		Rounds:         *rounds,
		Shrink:         !*noShrink,
		MaxShrinkRuns:  *shrinkRuns,
		Parallel:       *parallel,
		MaxEvents:      *budget,
		CollectMetrics: *metricsOut != "",
	}
	if *fault != "" {
		spec, err := faults.ParseSpec(*fault)
		if err != nil {
			log.Fatal(err)
		}
		opts.Fault = spec
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	var err error
	if opts.Patterns, err = patterns(*pattern); err != nil {
		log.Fatal(err)
	}
	if opts.Cells, err = cells(*mode, *multicast, *update, *stages); err != nil {
		log.Fatal(err)
	}
	cases, err := opts.Cases()
	if err != nil {
		var badNodes *machine.InvalidNodeCountError
		var badStages *machine.InvalidStageCountError
		switch {
		case errors.As(err, &badNodes):
			log.Fatalf("-nodes: %v", err)
		case errors.As(err, &badStages):
			log.Fatalf("-stages: %v", err)
		}
		log.Fatal(err)
	}

	if *chaos {
		runChaos(opts, *fault, *expect, *checkParallel)
		return
	}
	if *replay != 0 {
		replayCase(cases, *replay, *metricsOut, *traceOut)
		return
	}

	rep, err := fuzz.Run(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.String())
	if *metricsOut != "" {
		reg := rep.MergedMetrics()
		if reg == nil {
			reg = metrics.New()
		}
		if err := artifact.Metrics(*metricsOut, reg); err != nil {
			log.Fatal(err)
		}
	}
	if rep.Failed() {
		prof.Stop()
		os.Exit(1)
	}
}

// runChaos sweeps opts's matrix under the preset plan grid, or under
// the single plan named by fault, and exits 1 when a plan misses its
// contract.
func runChaos(opts fuzz.Options, fault, expect string, checkParallel bool) {
	opts.Shrink = false
	o := fuzz.ChaosOptions{Fuzz: opts, CheckParallel: checkParallel}
	if fault != "" {
		want := expect == "recover" || expect == "auto" && fuzz.Recoverable(opts.Fault)
		o.Plans = []fuzz.Plan{{Name: fault, Spec: opts.Fault, ExpectRecover: want}}
	}
	rep, err := fuzz.RunChaos(o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.String())
	if rep.Failed() {
		prof.Stop()
		os.Exit(1)
	}
}

// patterns parses the -pattern list.
func patterns(list string) ([]fuzz.Pattern, error) {
	if list == "all" {
		return fuzz.AllPatterns(), nil
	}
	var out []fuzz.Pattern
	for _, name := range strings.Split(list, ",") {
		p, err := fuzz.ParsePattern(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// replayed returns the case of the sweep whose per-case seed is
// caseSeed, with the protocol trace attached. It is the sweep's own
// case, fault plan and event budget included, so it fails exactly as
// it did in the sweep.
func replayed(cases []fuzz.Case, caseSeed uint64) (fuzz.Case, error) {
	for _, c := range cases {
		if c.Seed == caseSeed {
			c.Trace = true
			return c, nil
		}
	}
	return fuzz.Case{}, fmt.Errorf("no case with seed %d under these flags (the per-case seed depends on -seed and the matrix flags)", caseSeed)
}

// replayCase runs the case of cases with the given seed and dumps its
// trace on failure. When metricsOut/traceOut are set the case's
// registry and event stream are exported regardless of pass/fail.
func replayCase(cases []fuzz.Case, caseSeed uint64, metricsOut, traceOut string) {
	c, err := replayed(cases, caseSeed)
	if err != nil {
		log.Fatal(err)
	}
	res := fuzz.RunOps(c, fuzz.Generate(c.Pattern, c.Seed, c.Nodes, c.Ops))
	fmt.Printf("replay %v\n", c)
	if metricsOut != "" && res.Metrics != nil {
		if err := artifact.Metrics(metricsOut, res.Metrics); err != nil {
			log.Fatal(err)
		}
	}
	if traceOut != "" && res.Trace != nil {
		stream := res.Trace.Stream(fmt.Sprintf("replay %d", c.Seed))
		if err := artifact.Trace(traceOut, "the replay collector bound", stream); err != nil {
			log.Fatal(err)
		}
	}
	if !res.Failed() {
		fmt.Println("ok: no violations")
		return
	}
	if res.Panic != "" {
		fmt.Printf("panic: %s\n", res.Panic)
	}
	if res.ValidateErr != "" {
		fmt.Printf("validate: %s\n", res.ValidateErr)
	}
	for _, v := range res.Violations {
		fmt.Printf("violation: %v\n", v)
	}
	if res.TraceDump != "" {
		fmt.Println(res.TraceDump)
	}
	prof.Stop()
	os.Exit(1)
}

// cells selects the -mode/-multicast/-update slice of the matrix over
// the -stages list; "all" keeps an axis whole.
func cells(mode, multicast, update, stages string) ([]fuzz.Cell, error) {
	for _, f := range []struct{ name, value, values string }{
		{"-mode", mode, "queuing, nack"},
		{"-multicast", multicast, "on, off"},
		{"-update", update, "on, off"},
	} {
		if f.value != "all" && !slices.Contains(strings.Split(f.values, ", "), f.value) {
			return nil, fmt.Errorf("%s: unknown value %q (%s, all)", f.name, f.value, f.values)
		}
	}
	var stageList []int
	for _, s := range strings.Split(stages, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil {
			return nil, fmt.Errorf("-stages: bad value %q", s)
		}
		stageList = append(stageList, n)
	}
	keep := func(flag, value string) bool { return flag == "all" || flag == value }
	onOff := map[bool]string{true: "on", false: "off"}
	var out []fuzz.Cell
	for _, c := range fuzz.Matrix(stageList) {
		if keep(mode, c.Mode.String()) && keep(multicast, onOff[c.Multicast]) && keep(update, onOff[c.Update]) {
			out = append(out, c)
		}
	}
	return out, nil
}
