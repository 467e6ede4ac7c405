// Command cenju4-perfgate gates `go test -bench` output against the
// committed baseline in BENCH_sim.json, failing (exit 1) when a
// benchmark regresses past the tolerance or disappears.
//
// Usage:
//
//	go test ./internal/sim -bench BenchmarkEngine -benchmem -count 3 -run '^$' \
//	  | tee bench.txt
//	cenju4-perfgate -baseline BENCH_sim.json -bench bench.txt [-tolerance 2.5]
//
// With -bench - (the default) the bench output is read from stdin, so
// the two commands pipe together in CI. The gate warns when this host's
// CPU, core count or GOMAXPROCS differ from the baseline's.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"cenju4/internal/perfgate"
)

func main() {
	baselinePath := flag.String("baseline", "BENCH_sim.json", "committed benchmark baseline")
	benchPath := flag.String("bench", "-", "go test -bench output file (- = stdin)")
	tolerance := flag.Float64("tolerance", 2.5, "allowed ns/op factor over the baseline upper bound")
	allocTolerance := flag.Float64("alloc-tolerance", 1.5, "allowed allocs/op factor over the baseline")
	flag.Parse()

	bf, err := os.Open(*baselinePath)
	if err != nil {
		fatal(err)
	}
	baseline, err := perfgate.ParseBaseline(bf)
	bf.Close()
	if err != nil {
		fatal(err)
	}

	var in io.Reader = os.Stdin
	if *benchPath != "-" {
		f, err := os.Open(*benchPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	samples, err := perfgate.ParseBench(in)
	if err != nil {
		fatal(err)
	}

	err = perfgate.Gate(os.Stdout, baseline, samples, perfgate.Options{
		Tolerance:      *tolerance,
		AllocTolerance: *allocTolerance,
		NProc:          runtime.NumCPU(),
	})
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cenju4-perfgate: %v\n", err)
	os.Exit(1)
}
