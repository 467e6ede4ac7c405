// Command cenju4-chaos runs the coherence fuzz matrix under a grid of
// deterministic fault plans and holds every plan to its contract:
// recoverable plans must pass the shadow-memory oracle with
// byte-identical digests at any parallelism, and unrecoverable plans
// must abort within the event budget — a quiescence-watchdog trip with
// a stuck-state diagnosis under the queuing protocol, an event-budget
// abort for the nack protocol's livelock.
//
// Usage:
//
//	cenju4-chaos                                  # full plan grid
//	cenju4-chaos -plan drop-forwards              # one plan (watchdog expected)
//	cenju4-chaos -plan 'drop=0.1,timeout=100000' -expect recover
//	cenju4-chaos -check-parallel                  # cross-check digests at -parallel 1
//
// The run is deterministic: the same seed and flags reproduce a
// byte-identical report. Exit status 1 when any plan violates its
// contract.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"cenju4/internal/core"
	"cenju4/internal/faults"
	"cenju4/internal/fuzz"
	"cenju4/internal/machine"
	"cenju4/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cenju4-chaos: ")
	seed := flag.Uint64("seed", 1, "run seed; per-case seeds derive from it")
	ops := flag.Int("ops", 400, "access budget per case")
	nodes := flag.Int("nodes", 8, "node count (power of two, <= 1024)")
	rounds := flag.Int("rounds", 2, "quiescent validation rounds per case")
	pattern := flag.String("pattern", "", "traffic pattern (default: hotspot+migratory; 'all' for every generator)")
	mode := flag.String("mode", "all", "protocol mode: queuing, nack, all")
	stages := flag.Int("stages", 4, "network stage count")
	plan := flag.String("plan", "", "fault plan: preset name or k=v spec (default: the full preset grid)")
	expect := flag.String("expect", "auto", "expected outcome for -plan: auto, recover, watchdog")
	budget := flag.Uint64("budget", fuzz.DefaultChaosBudget, "per-case event budget (bounds nack-mode livelocks)")
	checkParallel := flag.Bool("check-parallel", false, "re-run recoverable plans at -parallel 1 and compare digests")
	parallel := flag.Int("parallel", runtime.NumCPU(), "concurrent cases (report is byte-identical at every setting)")
	flag.Parse()

	if !topology.ValidNodeCount(*nodes) {
		log.Fatalf("-nodes: %d is not a power of two <= %d", *nodes, topology.MaxNodes)
	}
	if err := (machine.Config{Nodes: *nodes, Stages: *stages}).Validate(); err != nil {
		log.Fatalf("-stages: %v", err)
	}
	o := fuzz.ChaosOptions{
		Fuzz: fuzz.Options{
			Seed:      *seed,
			Nodes:     *nodes,
			Ops:       *ops,
			Rounds:    *rounds,
			MaxEvents: *budget,
			Parallel:  *parallel,
			Patterns:  []fuzz.Pattern{fuzz.PatternHotspot, fuzz.PatternMigratory},
		},
		CheckParallel: *checkParallel,
	}
	if *pattern == "all" {
		o.Fuzz.Patterns = fuzz.AllPatterns()
	} else if *pattern != "" {
		p, err := fuzz.ParsePattern(*pattern)
		if err != nil {
			log.Fatal(err)
		}
		o.Fuzz.Patterns = []fuzz.Pattern{p}
	}
	for _, m := range modes(*mode) {
		o.Fuzz.Cells = append(o.Fuzz.Cells, fuzz.Cell{Mode: m, Multicast: true, Stages: *stages})
	}
	if *plan != "" {
		spec, err := faults.ParseSpec(*plan)
		if err != nil {
			log.Fatal(err)
		}
		spec = spec.Normalize()
		if err := spec.Validate(); err != nil {
			log.Fatal(err)
		}
		p := fuzz.Plan{Name: *plan, Spec: spec}
		switch *expect {
		case "recover":
			p.ExpectRecover = true
		case "watchdog":
			p.ExpectRecover = false
		case "auto":
			// Recovery covers exactly the request/reply legs; faults
			// confined there are repairable, anything wider is not.
			p.ExpectRecover = spec.Scope == faults.ScopeRequestReply
		default:
			log.Fatalf("-expect: %q is not auto, recover, or watchdog", *expect)
		}
		o.Plans = []fuzz.Plan{p}
	}

	rep := fuzz.RunChaos(o)
	fmt.Print(rep.String())
	if rep.Failed() {
		os.Exit(1)
	}
}

func modes(s string) []core.Mode {
	switch s {
	case "queuing":
		return []core.Mode{core.ModeQueuing}
	case "nack":
		return []core.Mode{core.ModeNack}
	case "all":
		return []core.Mode{core.ModeQueuing, core.ModeNack}
	}
	log.Fatalf("-mode: %q is not queuing, nack, or all", s)
	return nil
}
