// Command perfbench is the repository benchmark: it drives the
// cg-1024, fuzz-matrix and paper-quick workloads through the
// simulator's public Go APIs on the sequential kernel, checks every
// output, and prints one JSON result line.
//
// Usage (normally through run.sh, which builds it first):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--results dir] [--commit sha]
//
// With --trace 0 it reports the end-to-end metrics (wall_s, setup_s).
// With --trace 1 it first runs untraced for half the time, then traced
// — spans around its own calls into each layer, a CPU profile, and the
// layers' public counters — and reports the per-layer metrics; the full
// per-package profile table and the span dump are written to the
// results directory.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"cenju4/internal/metrics"
)

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: cg-1024, fuzz-matrix or paper-quick")
	seed := flag.Uint64("seed", 1, "input seed (used by fuzz-matrix; cg-1024 and paper-quick inputs are fixed)")
	secs := flag.Int("seconds", 30, "measurement time in seconds")
	traceOn := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	results := flag.String("results", ".bench_build/results", "directory for the profile table, raw profile and span dump")
	commit := flag.String("commit", "unknown", "commit being measured, recorded with the host facts")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *secs < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *secs, *traceOn)
		os.Exit(2)
	}
	// One processor for the whole process: the load is one goroutine,
	// and with a second processor each of the many short collections of
	// the small-machine workloads wakes a thread on the other core. On
	// the shared 2-core host those wake-ups made the paper-quick setup
	// stand-in 5-14 ms a pass against 3.3-6.8 ms on one processor.
	runtime.GOMAXPROCS(1)
	host := hostFacts(*commit)
	hostJSON, _ := json.Marshal(host) // a map of strings and ints always marshals
	fmt.Printf("host %s\n", hostJSON)

	budget := time.Duration(*secs) * time.Second
	var res result
	var err error
	if *traceOn == 0 {
		res, err = endToEnd(w, *seed, budget)
	} else {
		res, err = perLayer(w, *seed, budget, *results, hostJSON)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

// hostFacts records what the numbers depend on besides the code.
func hostFacts(commit string) map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu":        model,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runFor repeats w until the next iteration would likely end past
// budget (at least once). Each iteration starts from a collected heap,
// so garbage one iteration leaves behind is not collected on the next
// one's clock and every iteration meets the collector in the same state.
func runFor(w workload, seed uint64, budget time.Duration, tr *tracer) []iteration {
	var its []iteration
	var walls []float64
	start := time.Now()
	for {
		if tr != nil {
			tr.iter = len(its)
		}
		runtime.GC()
		probe := hostProbe()
		it := w.run(seed, tr)
		it.probes = append(it.probes, probe)
		its = append(its, it)
		walls = append(walls, it.wall.Seconds())
		next := time.Since(start) + time.Duration(median(walls)*float64(time.Second))
		if next > budget {
			return its
		}
	}
}

func tally(its []iteration, res *result) {
	for _, it := range its {
		res.Attempted += it.attempted
		res.Failed += it.failed
		for _, f := range it.failures {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", f)
		}
	}
	res.Correct = res.Failed == 0
}

// endToEnd measures the user-visible metrics with tracing off.
func endToEnd(w workload, seed uint64, budget time.Duration) (result, error) {
	its := runFor(w, seed, budget, nil)
	var walls, setups, jobs, probes []float64
	for _, it := range its {
		walls = append(walls, it.wall.Seconds())
		setups = append(setups, it.setup.Seconds())
		for _, p := range it.probes {
			probes = append(probes, p.Seconds())
		}
		for _, j := range it.jobs {
			jobs = append(jobs, j.Seconds()*1e3)
		}
	}
	res := result{Metrics: metricSet{}}
	tally(its, &res)
	scale := hostScale(probes)
	if err := res.Metrics.add("wall_s", "s", median(walls)*scale); err != nil {
		return res, err
	}
	if err := res.Metrics.add("setup_s", "s", median(setups)*scale); err != nil {
		return res, err
	}
	// Job latency percentiles are reported where the run holds enough
	// jobs for the percentile rule (fuzz-matrix: 168 cases per sweep).
	fmt.Fprintf(os.Stderr, "%s: %d iterations, %d jobs, fail_ratio %d/%d\n", w.name, len(its), len(jobs), res.Failed, res.Attempted)
	fmt.Fprintf(os.Stderr, "  unscaled wall_s %.6f s, setup_s %.6f s; host probe %.4f ms, scale %.4f\n",
		median(walls), median(setups), median(probes)*1e3, scale)
	for _, p := range []float64{50, 90} {
		if v, err := percentile(jobs, p); err == nil {
			fmt.Fprintf(os.Stderr, "  job_p%v_ms %.4f ms (%d samples)\n", p, v, len(jobs))
		}
	}
	return res, nil
}

// perLayer runs untraced for half the budget, then traced for the other
// half, and reports the per-layer metrics. All per-iteration figures
// are averaged over the traced iterations.
func perLayer(w workload, seed uint64, budget time.Duration, dir string, hostJSON []byte) (result, error) {
	res := result{Metrics: metricSet{}}
	plain := runFor(w, seed, budget/2, nil)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prof bytes.Buffer
	cpuBefore := cpuTime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return res, err
	}
	tr := newTracer()
	traced := runFor(w, seed, budget/2, tr)
	pprof.StopCPUProfile()
	cpuUsed := cpuTime() - cpuBefore
	runtime.ReadMemStats(&after)
	tally(append(plain, traced...), &res)

	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return res, err
	}
	self := p.selfTime(cpuUsed)
	n := float64(len(traced))
	spanTotal, spanSelf := tr.totals()

	// Counters: the machines' public registries plus processor totals.
	var memAcc, misses uint64
	reg := metrics.New()
	for _, it := range traced {
		if it.reg != nil {
			reg.Merge(it.reg)
		}
		memAcc += it.memAccesses
		misses += it.misses
	}
	counter := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	plainWall := make([]float64, len(plain))
	for i, it := range plain {
		plainWall[i] = it.wall.Seconds()
	}
	tracedWall := make([]float64, len(traced))
	for i, it := range traced {
		tracedWall[i] = it.wall.Seconds()
	}
	events := counter("sim/events") / n
	selfS := func(layer string) float64 { return float64(self[layer]) / 1e9 / n }
	spanS := func(name string) float64 { return spanTotal[name].Seconds() / n }

	type lm struct {
		name, unit string
		v          float64
	}
	list := []lm{
		{"sim.events", "count", events},
		{"sim.ns_per_event", "ns", median(plainWall) * 1e9 / events},
		{"sim.self_s", "s", selfS("sim")},
		{"net.messages", "count", counter("net/messages") / n},
		{"net.hops", "count", counter("net/hops") / n},
		{"net.contended_hops", "count", counter("net/contended-hops") / n},
		{"net.multicasts", "count", counter("net/multicasts") / n},
		{"net.gather_merges", "count", counter("net/gather-merges") / n},
		{"net.self_s", "s", selfS("network")},
		{"directory.inv_targets_per_inval", "targets", ratio(counter("core/inv-targets"), counter("core/invalidations"))},
		{"directory.self_s", "s", selfS("directory")},
		{"core.home_requests", "count", counter("core/home-requests") / n},
		{"core.slave_requests", "count", counter("core/slave-requests") / n},
		{"core.home_forwards", "count", counter("core/home-forwards") / n},
		{"core.queued_requests", "count", counter("core/queued-requests") / n},
		{"core.nacks", "count", counter("core/nacks") / n},
		{"core.retries", "count", counter("core/retries") / n},
		{"core.nack_ratio", "ratio", ratio(counter("core/nacks"), counter("core/home-requests"))},
		{"core.self_s", "s", selfS("core")},
		{"memory.home_fifo_hw", "entries", float64(reg.Gauge("core/fifo/home-requests").HighWater())},
		{"memory.overflow_hw", "entries", float64(max(reg.Gauge("core/fifo/home-out-overflow").HighWater(),
			reg.Gauge("core/fifo/slave-overflow").HighWater()))},
		{"memory.self_s", "s", selfS("memory")},
		{"cache.miss_ratio", "ratio", ratio(float64(misses), float64(memAcc))},
		{"cpu.mem_accesses", "count", float64(memAcc) / n},
		{"cache.self_s", "s", selfS("cache")},
		{"cpu.self_s", "s", selfS("cpu")},
		{"msg.self_s", "s", selfS("msg")},
		{"mpi.self_s", "s", selfS("mpi")},
		{"npb.self_s", "s", selfS("npb")},
		{"npb.build_s", "s", spanS("npb.build")},
		{"machine.new_s", "s", spanS("machine.new")},
		{"machine.run_s", "s", spanS("machine.run")},
		{"machine.validate_s", "s", spanS("machine.validate")},
		{"fuzz.generate_s", "s", spanS("fuzz.generate")},
		{"fuzz.case_s", "s", spanS("fuzz.case")},
		{"fuzz.self_s", "s", selfS("fuzz")},
		{"gc.alloc_mb", "MB", float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / n},
		{"gc.cycles", "count", float64(after.NumGC-before.NumGC) / n},
		// HeapSys never shrinks, so it is the run's high-water mark of heap
		// obtained from the OS.
		{"peak_heap_mb", "MB", float64(after.HeapSys) / (1 << 20)},
		{"gc.self_s", "s", selfS("gc")},
		{"runtime.self_s", "s", selfS("runtime")},
		{"span.setup_s", "s", spanS("setup")},
		{"span.run_s", "s", spanS("run")},
		{"trace.overhead_s", "s", median(tracedWall) - median(plainWall)},
	}
	for _, s := range paperSteps {
		list = append(list, lm{"experiments." + s.name + "_s", "s", spanS("experiments." + s.name)})
	}
	for _, m := range list {
		if err := res.Metrics.add(m.name, m.unit, m.v); err != nil {
			return res, err
		}
	}

	// The side report: every package of the profile, not only the layers
	// reported above, and every span.
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s seed %d: %d untraced + %d traced iterations\nhost %s\n\n", w.name, seed, len(plain), len(traced), hostJSON)
	b.WriteString("per-package CPU self time (traced iterations)\n")
	b.WriteString(profileTable(self, len(traced)))
	b.WriteString("\nspans (seconds per iteration)\n")
	names := make([]string, 0, len(spanTotal))
	for name := range spanTotal {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "%-24s %12s %12s\n", "span", "total_s", "self_s")
	for _, name := range names {
		fmt.Fprintf(&b, "%-24s %12.6f %12.6f\n", name+"_s", spanTotal[name].Seconds()/n, spanSelf[name].Seconds()/n)
	}
	b.WriteString("\nper-layer metrics\n")
	for _, m := range list {
		fmt.Fprintf(&b, "%-32s %16.6f %s\n", m.name, m.v, m.unit)
	}
	fmt.Fprint(os.Stderr, b.String())

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.name, seed))
	var spans bytes.Buffer
	if err := tr.writeJSON(&spans); err != nil {
		return res, err
	}
	for path, data := range map[string][]byte{
		base + ".layers.txt":  []byte(b.String()),
		base + ".cpu.pprof":   prof.Bytes(),
		base + ".spans.jsonl": spans.Bytes(),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return res, err
		}
	}
	return res, nil
}
