// Command cenju4-fuzz drives the coherence-traffic fuzzer and
// consistency oracle across the protocol configuration matrix.
//
// Usage:
//
//	cenju4-fuzz -seed 1 -ops 50000                    # full sweep
//	cenju4-fuzz -pattern hotspot -mode nack -ops 5000 # one slice
//	cenju4-fuzz -replay 834259609813245009            # re-run one case
//	                                                    with trace dump
//	cenju4-fuzz -metrics-out m.json                   # merged case metrics
//	cenju4-fuzz -replay N -trace-out t.json           # Perfetto trace of
//	                                                    the replayed case
//	cenju4-fuzz -cpuprofile cpu.pprof -memprofile mem.pprof  # pprof files
//
// The run is deterministic: the same seed and flags reproduce a
// byte-identical report. On any oracle violation, invariant failure or
// deadlock the process exits 1 after printing the shrunk reproducer.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"cenju4/cmd/internal/profiling"
	"cenju4/internal/core"
	"cenju4/internal/faults"
	"cenju4/internal/fuzz"
	"cenju4/internal/machine"
	"cenju4/internal/metrics"
	"cenju4/internal/topology"
	"cenju4/internal/trace"
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
	pattern := flag.String("pattern", "all", "traffic pattern (or all): uniform, hotspot, partition, migratory, producer-consumer, false-sharing, eviction")
	mode := flag.String("mode", "all", "protocol mode: queuing, nack, all")
	multicast := flag.String("multicast", "all", "multicast: on, off, all")
	update := flag.String("update", "all", "update protocol: on, off, all")
	stages := flag.String("stages", "2,4,6", "network stage counts (comma separated)")
	noShrink := flag.Bool("noshrink", false, "skip shrinking failures to minimal reproducers")
	shrinkRuns := flag.Int("shrinkruns", 300, "max re-executions while shrinking one failure")
	replay := flag.Uint64("replay", 0, "re-run the one case with this per-case seed, protocol trace attached")
	quiet := flag.Bool("q", false, "suppress per-case progress lines")
	parallel := flag.Int("parallel", runtime.NumCPU(), "concurrent fuzz cases (1 = sequential; report and progress output are byte-identical at every setting)")
	fault := flag.String("fault", "", "deterministic fault plan for every case: preset name or k=v spec (see cenju4-chaos for plan-grid sweeps)")
	budget := flag.Uint64("budget", 0, "per-case event budget (0 = unlimited; set one when -fault may wedge nack-mode cases)")
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
		spec = spec.Normalize()
		if err := spec.Validate(); err != nil {
			log.Fatal(err)
		}
		opts.Fault = spec
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	if *pattern != "all" {
		p, err := fuzz.ParsePattern(*pattern)
		if err != nil {
			log.Fatal(err)
		}
		opts.Patterns = []fuzz.Pattern{p}
	}
	var err error
	if opts.Cells, err = cells(*mode, *multicast, *update, *stages); err != nil {
		log.Fatal(err)
	}
	if !topology.ValidNodeCount(*nodes) {
		log.Fatalf("-nodes: %d is not a power of two <= %d", *nodes, topology.MaxNodes)
	}
	for _, c := range opts.Cells {
		if err := (machine.Config{Nodes: *nodes, Stages: c.Stages}).Validate(); err != nil {
			log.Fatalf("-stages: %v", err)
		}
	}

	if *replay != 0 {
		replayCase(opts, *replay, *metricsOut, *traceOut)
		return
	}

	rep := fuzz.Run(opts)
	fmt.Print(rep.String())
	if *metricsOut != "" {
		reg := rep.MergedMetrics()
		if reg == nil {
			reg = metrics.New()
		}
		if err := writeMetrics(*metricsOut, reg); err != nil {
			log.Fatal(err)
		}
	}
	if rep.Failed() {
		prof.Stop()
		os.Exit(1)
	}
}

// writeMetrics writes reg as canonical JSON to path.
func writeMetrics(path string, reg *metrics.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayCase re-runs the single case whose derived seed matches, with
// the protocol tracer attached, and dumps the trace on failure. When
// metricsOut/traceOut are set the case's registry and event stream are
// exported regardless of pass/fail.
func replayCase(opts fuzz.Options, caseSeed uint64, metricsOut, traceOut string) {
	if len(opts.Patterns) == 0 {
		opts.Patterns = fuzz.AllPatterns()
	}
	if len(opts.Cells) == 0 {
		opts.Cells = fuzz.DefaultCells()
	}
	i := 0
	for _, p := range opts.Patterns {
		for _, cell := range opts.Cells {
			s := fuzz.CaseSeed(opts.Seed, i)
			i++
			if s != caseSeed {
				continue
			}
			c := fuzz.Case{
				Seed: s, Nodes: opts.Nodes, Ops: opts.Ops, Rounds: opts.Rounds,
				Pattern: p, Cell: cell, Trace: true,
				Metrics: metricsOut != "",
			}
			streams := fuzz.Generate(c.Pattern, c.Seed, c.Nodes, c.Ops)
			res := fuzz.RunOps(c, streams)
			fmt.Printf("replay %v\n", c)
			if metricsOut != "" && res.Metrics != nil {
				if err := writeMetrics(metricsOut, res.Metrics); err != nil {
					log.Fatal(err)
				}
			}
			if traceOut != "" && res.Trace != nil {
				f, err := os.Create(traceOut)
				if err != nil {
					log.Fatal(err)
				}
				dropped, err := trace.WriteChrome(f, res.Trace.Stream(fmt.Sprintf("replay %d", caseSeed)))
				if err != nil {
					log.Fatal(err)
				}
				if err := f.Close(); err != nil {
					log.Fatal(err)
				}
				if dropped > 0 {
					log.Printf("trace truncated: %d events beyond the replay collector bound (truncation is recorded in %s)", dropped, traceOut)
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
	}
	log.Fatalf("no case with seed %d under these flags (the per-case seed depends on -seed and the matrix flags)", caseSeed)
}

func cells(mode, multicast, update, stages string) ([]fuzz.Cell, error) {
	modes, err := pickModes(mode)
	if err != nil {
		return nil, fmt.Errorf("-mode: %w", err)
	}
	mcs, err := pickBool(multicast)
	if err != nil {
		return nil, fmt.Errorf("-multicast: %w", err)
	}
	upds, err := pickBool(update)
	if err != nil {
		return nil, fmt.Errorf("-update: %w", err)
	}
	if update == "all" {
		// Match fuzz.DefaultCells order (off before on) so per-case
		// seeds line up with the library's sweep for -replay.
		upds = []bool{false, true}
	}
	var stageList []int
	for _, s := range strings.Split(stages, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil {
			return nil, fmt.Errorf("-stages: bad value %q", s)
		}
		stageList = append(stageList, n)
	}
	var out []fuzz.Cell
	for _, m := range modes {
		for _, mc := range mcs {
			for _, u := range upds {
				for _, st := range stageList {
					out = append(out, fuzz.Cell{Mode: m, Multicast: mc, Update: u, Stages: st})
				}
			}
		}
	}
	return out, nil
}

func pickModes(s string) ([]core.Mode, error) {
	switch s {
	case "all":
		return []core.Mode{core.ModeQueuing, core.ModeNack}, nil
	case "queuing":
		return []core.Mode{core.ModeQueuing}, nil
	case "nack":
		return []core.Mode{core.ModeNack}, nil
	}
	return nil, fmt.Errorf("unknown value %q (queuing, nack, all)", s)
}

func pickBool(s string) ([]bool, error) {
	switch s {
	case "all":
		return []bool{true, false}, nil
	case "on":
		return []bool{true}, nil
	case "off":
		return []bool{false}, nil
	}
	return nil, fmt.Errorf("unknown value %q (on, off, all)", s)
}
