// Command cenju4-sim runs one workload configuration on a simulated
// Cenju-4 machine and prints its execution summary.
//
// Usage:
//
//	cenju4-sim -app bt -variant dsm2 -nodes 64 [-nomap] [-scale f] [-iters n]
//	           [-seed n] [-metrics-out m.json] [-trace-out t.json] [-trace-max n]
//	           [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The simulation is fully deterministic: the same flags always produce
// the same summary, the same -metrics-out report, and the same
// -trace-out file, byte for byte. -seed is recorded in both outputs so
// runs can be labelled, but does not perturb the simulation.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"cenju4"
	"cenju4/cmd/internal/artifact"
	"cenju4/cmd/internal/profiling"
	"cenju4/internal/metrics"
	"cenju4/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cenju4-sim: ")
	app := flag.String("app", "bt", "application: bt, cg, ft, sp")
	variant := flag.String("variant", "dsm2", "program form: seq, mpi, dsm1, dsm2")
	nodes := flag.Int("nodes", 16, "node count (power of two, <= 1024)")
	nomap := flag.Bool("nomap", false, "disable shared-data mappings")
	scale := flag.Float64("scale", 0.25, "problem scale (1.0 = NPB Class A)")
	iters := flag.Int("iters", 2, "outer iterations")
	seed := flag.Int64("seed", 0, "run label recorded in observability output (simulation is deterministic)")
	fault := flag.String("fault", "", "deterministic fault plan: preset name or k=v spec (recoverable plans only; see cenju4-fuzz -chaos for the grid)")
	metricsOut := flag.String("metrics-out", "", "write the metrics registry as canonical JSON to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome-trace-event (Perfetto-loadable) JSON file")
	traceMax := flag.Int("trace-max", 1<<20, "trace event capacity; excess events are counted and surfaced")
	prof := profiling.Register(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		log.Fatal(err)
	}
	defer prof.Stop()

	opts := cenju4.WorkloadOptions{
		Nodes:      *nodes,
		Iterations: *iters,
		Scale:      *scale,
		Fault:      *fault,
	}
	mapped := !*nomap
	opts.DataMapping = &mapped
	var reg *metrics.Registry
	if *metricsOut != "" {
		reg = metrics.New()
		opts.Metrics = reg
	}
	var col *trace.Collector
	if *traceOut != "" {
		col = trace.NewCollector(*traceMax)
		opts.Trace = col
	}

	res, err := cenju4.RunNPB(*app, *variant, opts)
	if err != nil {
		log.Fatal(err)
	}

	if reg != nil {
		reg.Gauge("run/seed").Peak(*seed)
		if err := artifact.Metrics(*metricsOut, reg); err != nil {
			log.Fatal(err)
		}
	}
	if col != nil {
		label := fmt.Sprintf("%s/%s nodes=%d seed=%d", *app, *variant, *nodes, *seed)
		if err := artifact.Trace(*traceOut, fmt.Sprintf("-trace-max %d", *traceMax), col.Stream(label)); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("%s/%s on %d nodes (scale %.2f, %d iterations, mappings %v)\n",
		*app, *variant, *nodes, *scale, *iters, mapped)
	fmt.Printf("  simulated time    %v\n", res.Time)
	fmt.Printf("  instructions      %d\n", res.Instructions)
	fmt.Printf("  memory accesses   %d\n", res.MemAccesses)
	fmt.Printf("  L2 miss ratio     %.2f%%\n", 100*res.MissRatio)
	fmt.Printf("  miss breakdown    private %.1f%% / local %.1f%% / remote %.1f%%\n",
		100*res.PrivateMissShare, 100*res.LocalMissShare, 100*res.RemoteMissShare)
	fmt.Printf("  sync fraction     %.1f%%\n", 100*res.SyncFraction)
	fmt.Printf("  rewriting ratio   %.1f%%\n", 100*res.RewriteRatio)
	if len(res.Latency) > 0 {
		fmt.Println("  transaction latencies:")
		kinds := make([]string, 0, len(res.Latency))
		for k := range res.Latency {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			l := res.Latency[k]
			fmt.Printf("    %-16s n=%-8d mean=%-9v p50<=%-9v p99<=%-9v max=%v\n",
				k, l.Count, l.Mean, l.P50, l.P99, l.Max)
		}
	}
}
