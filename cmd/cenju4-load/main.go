// Command cenju4-load is a closed-loop load generator and soak test
// for cenju4-serve. Each client goroutine posts job specs back to
// back; the spec mix reuses a small set of popular specs with
// probability -dup (cache hits) and otherwise generates unique ones
// (cache misses). After the run it re-fetches every digest it saw and
// verifies the bodies are byte-identical, then prints a latency /
// throughput / hit-rate report.
//
// Usage:
//
//	cenju4-load -addr http://127.0.0.1:8944 [-clients n] [-requests n]
//	            [-duration d] [-dup f] [-seed n] [-app cg] [-variant dsm2]
//	            [-nodes n] [-fault plan] [-retries n] [-min-hit-rate f] [-json]
//
// With -retries set, shed responses (429 queue-full, 503 unavailable)
// are retried with seeded-jitter exponential backoff, never sooner
// than the server's Retry-After header; retry counts appear in the
// report.
//
// Exit status is nonzero if any identity check fails, any request
// errors, or the hit rate falls below -min-hit-rate (when set).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"cenju4/internal/serve"
	"cenju4/internal/spec"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8944", "service base URL")
	clients := flag.Int("clients", 8, "concurrent closed-loop clients")
	requests := flag.Int("requests", 0, "total POSTs across all clients (0 = 64x clients)")
	duration := flag.Duration("duration", 0, "run for this long instead of a request count")
	dup := flag.Float64("dup", 0.9, "probability a request duplicates a popular spec")
	seed := flag.Uint64("seed", 1, "seed for the reproducible request mix")
	app := flag.String("app", "cg", "base workload application")
	variant := flag.String("variant", "dsm2", "base workload variant")
	nodes := flag.Int("nodes", 8, "base workload node count")
	iters := flag.Int("iters", 1, "base workload iterations")
	scale := flag.Float64("scale", 0.02, "base workload problem scale")
	sharedSpecs := flag.Int("shared-specs", 4, "number of distinct popular specs")
	fault := flag.String("fault", "", "fault plan field of the base spec (preset name or k=v; recoverable plans only)")
	retries := flag.Int("retries", 0, "retry shed responses (429/503) up to this many times, backing off with seeded jitter and honoring Retry-After")
	minHitRate := flag.Float64("min-hit-rate", -1, "fail if the hit rate is below this (-1 = no assertion)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of text")
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	rep, err := serve.RunLoad(ctx, serve.LoadOptions{
		BaseURL:     *addr,
		Clients:     *clients,
		Requests:    *requests,
		Duration:    *duration,
		DupRatio:    *dup,
		Seed:        *seed,
		SharedSpecs: *sharedSpecs,
		MaxRetries:  *retries,
		Spec: spec.Spec{
			App: *app, Variant: *variant, Nodes: *nodes,
			Iterations: *iters, Scale: *scale, Fault: *fault,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cenju4-load: %v\n", err)
		os.Exit(1)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "cenju4-load: %v\n", err)
			os.Exit(1)
		}
	} else {
		fmt.Print(rep.String())
	}

	failed := false
	if rep.Mismatch > 0 {
		fmt.Fprintf(os.Stderr, "cenju4-load: FAIL: %d byte-identity mismatches\n", rep.Mismatch)
		failed = true
	}
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "cenju4-load: FAIL: %d request errors\n", rep.Errors)
		failed = true
	}
	if rep.Requests == 0 {
		fmt.Fprintln(os.Stderr, "cenju4-load: FAIL: no requests completed")
		failed = true
	}
	if *minHitRate >= 0 && rep.HitRate() < *minHitRate {
		fmt.Fprintf(os.Stderr, "cenju4-load: FAIL: hit rate %.3f below required %.3f\n", rep.HitRate(), *minHitRate)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
