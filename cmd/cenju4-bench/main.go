// Command cenju4-bench regenerates every table and figure of the
// paper's evaluation, plus the ablation studies.
//
// Usage:
//
//	cenju4-bench [-quick|-full] [-scale f] [-iters n] [-only name]
//	             [-metrics-out m.json] [-trace-out t.json] [-trace-max n]
//	             [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Experiment names: table1, table2, table3, table4, fig4, fig10, fig11,
// fig12, futurework, ablations. The default runs everything under the
// quick preset (tens of seconds); -full uses Class A scale, matching
// EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"cenju4/cmd/internal/artifact"
	"cenju4/cmd/internal/profiling"
	"cenju4/internal/experiments"
	"cenju4/internal/faults"
	"cenju4/internal/metrics"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cenju4-bench: ")
	quick := flag.Bool("quick", true, "quick preset (small problem scale)")
	full := flag.Bool("full", false, "full preset (Class A scale; overrides -quick)")
	scale := flag.Float64("scale", 0, "override problem scale (1.0 = NPB Class A)")
	iters := flag.Int("iters", 0, "override iteration count")
	only := flag.String("only", "", "comma-separated experiments to run (default: all)")
	seed := flag.Int64("seed", 0, "Monte-Carlo seed for Figure 4 (0 = preset default)")
	ablSeed := flag.Int64("ablation-seed", 7, "sharer-placement seed for the imprecision ablation")
	fault := flag.String("fault", "", "deterministic fault plan for the application runs: preset name or k=v spec (recoverable plans only)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker goroutines for independent simulation runs (1 = sequential; output is byte-identical at every setting)")
	metricsOut := flag.String("metrics-out", "", "write the merged metrics registry of all machine runs as canonical JSON to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome-trace-event (Perfetto-loadable) JSON file covering all machine runs")
	traceMax := flag.Int("trace-max", 1<<16, "per-run trace event capacity for -trace-out; excess events are counted and surfaced")
	prof := profiling.Register(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		log.Fatal(err)
	}
	defer prof.Stop()

	cfg := experiments.Quick()
	if *full {
		cfg = experiments.Full()
	} else if !*quick {
		cfg = experiments.Full()
	}
	if *scale != 0 {
		cfg.Scale = *scale
	}
	if *iters != 0 {
		cfg.Iterations = *iters
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Parallel = *parallel
	if *fault != "" {
		spec, err := faults.ParseSpec(*fault)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Fault = spec
	}
	if *metricsOut != "" || *traceOut != "" {
		ob := &experiments.Observation{}
		if *traceOut != "" {
			ob.TraceCap = *traceMax
		}
		cfg.Observe = ob
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(name)] = true
		}
	}
	want := func(name string) bool { return len(selected) == 0 || selected[name] }

	type step struct {
		name string
		run  func() string
	}
	steps := []step{
		{"table1", func() string { return experiments.Table1().Render() }},
		{"fig4", func() string { return experiments.Figure4(cfg).Render() }},
		{"table2", func() string { return experiments.Table2().Render() }},
		{"fig10", func() string { return experiments.Figure10().Render() }},
		{"fig11", func() string { return experiments.Figure11(cfg).Render() }},
		{"fig12", func() string { return experiments.Figure12(cfg).Render() }},
		{"table3", func() string { return experiments.Table3(cfg).Render() }},
		{"table4", func() string { return experiments.Table4(cfg).Render() }},
		{"futurework", func() string { return experiments.FutureWork(cfg).Render() }},
		{"ablations", func() string {
			var b strings.Builder
			b.WriteString(experiments.AblationNack(32).Render())
			b.WriteString("\n")
			b.WriteString(experiments.AblationSinglecastThreshold(cfg, 64).Render())
			b.WriteString("\n")
			b.WriteString(experiments.AblationImprecision(cfg, 1024, *ablSeed).Render())
			return b.String()
		}},
	}

	ran := 0
	for _, s := range steps {
		if !want(s.name) {
			continue
		}
		ran++
		start := time.Now()
		out := s.run()
		// Results go to stdout, which is byte-deterministic for a given
		// flag set at every -parallel level; wall-clock timing is a
		// progress note on stderr so it never perturbs that guarantee.
		fmt.Printf("==== %s (scale %.2f, %d iters) ====\n%s\n",
			s.name, cfg.Scale, cfg.Iterations, out)
		fmt.Fprintf(os.Stderr, "cenju4-bench: %s %.1fs\n", s.name, time.Since(start).Seconds())
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "cenju4-bench: no experiment matches %q\n", *only)
		os.Exit(2)
	}

	if *metricsOut != "" {
		reg := cfg.Observe.Metrics
		if reg == nil {
			reg = metrics.New() // no machine-building experiment selected
		}
		if err := artifact.Metrics(*metricsOut, reg); err != nil {
			log.Fatal(err)
		}
	}
	if *traceOut != "" {
		if err := artifact.Trace(*traceOut, fmt.Sprintf("-trace-max %d", *traceMax), cfg.Observe.Streams...); err != nil {
			log.Fatal(err)
		}
	}
}
