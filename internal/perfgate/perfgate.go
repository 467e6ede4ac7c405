// Package perfgate compares `go test -bench` output against the
// committed baseline (BENCH_sim.json) and fails on regressions.
//
// The baseline records, per benchmark, the ns/op range measured after
// the event-kernel optimization landed. The gate takes the *minimum*
// ns/op across the fresh run's repetitions (the least-noisy sample a
// shared CI box can produce), and requires it to stay under the
// baseline range's upper bound times a tolerance factor. Memory
// figures (B/op, allocs/op) are compared too when present — allocation
// counts are deterministic, so they get a much tighter tolerance.
//
// Baselines may additionally declare throughput floors on custom
// b.ReportMetric columns (BENCH_scale.json pins a msgs/sec minimum on
// the 1024-node storm benchmark); floors divide by the same tolerance
// the ceilings multiply by.
//
// Baselines also record the host they were measured on (CPU model, core
// count, GOMAXPROCS). Gate warns, without changing the verdict, when the
// fresh run's host differs: the bands only mean much on like hardware.
package perfgate

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Baseline mirrors the schema of BENCH_sim.json (fields the gate does
// not use are ignored).
type Baseline struct {
	Description string `json:"description"`
	Command     string `json:"command"`
	// CPU, NProc and GOMAXPROCS describe the host the bands were measured
	// on: the bench output's "cpu:" header, the core count, and the
	// benchmark names' -N suffix. Zero values mean unrecorded.
	CPU        string              `json:"cpu"`
	NProc      int                 `json:"nproc"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Benchmarks []BaselineBenchmark `json:"benchmarks"`
}

// BaselineBenchmark is one benchmark's committed expectation.
type BaselineBenchmark struct {
	Name  string        `json:"name"`
	After BaselineRange `json:"after"`
	// Floors lists per-metric minimums for custom benchmark metrics
	// (b.ReportMetric units such as "msgs/sec"): the best (maximum)
	// sample of each named metric must reach floor / Tolerance. Where a
	// ns/op band is an upper bound on cost, a floor is a lower bound on
	// throughput — BENCH_scale.json uses one to pin the 1024-node
	// protocol message rate.
	Floors map[string]float64 `json:"floors,omitempty"`
}

// BaselineRange is the post-optimization measurement band.
type BaselineRange struct {
	NsOpRange []float64 `json:"ns_op_range"`
	BOp       float64   `json:"b_op"`
	AllocsOp  float64   `json:"allocs_op"`
}

// ParseBaseline decodes a BENCH_sim.json document.
func ParseBaseline(r io.Reader) (Baseline, error) {
	var b Baseline
	dec := json.NewDecoder(r)
	if err := dec.Decode(&b); err != nil {
		return Baseline{}, fmt.Errorf("perfgate: baseline: %w", err)
	}
	if len(b.Benchmarks) == 0 {
		return Baseline{}, fmt.Errorf("perfgate: baseline lists no benchmarks")
	}
	for _, bm := range b.Benchmarks {
		if bm.Name == "" || len(bm.After.NsOpRange) != 2 {
			return Baseline{}, fmt.Errorf("perfgate: baseline entry %q malformed", bm.Name)
		}
	}
	return b, nil
}

// Sample is one parsed benchmark result line.
type Sample struct {
	Name     string  // benchmark name with the -N cpu suffix stripped
	CPU      string  // the output's most recent "cpu:" header, "" if none
	Procs    int     // GOMAXPROCS: the stripped -N suffix, 1 if absent
	NsOp     float64 // ns/op
	BOp      float64 // B/op, -1 if the line had no -benchmem columns
	AllocsOp float64 // allocs/op, -1 likewise
	// Metrics holds custom b.ReportMetric columns by unit (for example
	// "msgs/sec"); nil when the line carries none.
	Metrics map[string]float64
}

// ParseBench extracts benchmark samples from `go test -bench` output.
// Lines that are not benchmark results (headers, PASS, ok) are
// skipped; a -count > 1 run yields multiple samples per name.
func ParseBench(r io.Reader) ([]Sample, error) {
	var out []Sample
	cpu := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if c, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(c)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		// BenchmarkName-8  100  12345 ns/op [ 67 B/op  8 allocs/op ]
		if len(f) < 4 || f[3] != "ns/op" {
			continue
		}
		ns, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			continue
		}
		name, procs := splitCPUSuffix(f[0])
		s := Sample{Name: name, CPU: cpu, Procs: procs, NsOp: ns, BOp: -1, AllocsOp: -1}
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "B/op":
				s.BOp = v
			case "allocs/op":
				s.AllocsOp = v
			default:
				if s.Metrics == nil {
					s.Metrics = make(map[string]float64)
				}
				s.Metrics[f[i+1]] = v
			}
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("perfgate: reading bench output: %w", err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("perfgate: no benchmark result lines found")
	}
	return out, nil
}

// splitCPUSuffix splits go test's -GOMAXPROCS suffix off a benchmark
// name ("BenchmarkX-8" -> "BenchmarkX", 8). go test omits the suffix at
// GOMAXPROCS 1.
func splitCPUSuffix(name string) (string, int) {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], n
		}
	}
	return name, 1
}

// Verdict is the gate's decision for one baseline benchmark.
type Verdict struct {
	Name        string
	Ran         bool    // samples were found for this benchmark
	BestNs      float64 // min ns/op across samples
	LimitNs     float64 // allowed ceiling (baseline upper bound x tolerance)
	MinAllocs   float64 // min allocs/op across samples (-1 if unmeasured)
	LimitAllocs float64
	Pass        bool
	Reason      string
}

// Options tunes the gate.
type Options struct {
	// Tolerance multiplies the baseline ns/op upper bound (default 2.5:
	// CI boxes are slower and noisier than the machine that set the
	// baseline; the gate is for order-of-magnitude regressions, not
	// single-digit percentages).
	Tolerance float64
	// AllocTolerance multiplies the baseline allocs/op (default 1.5).
	// Allocation counts barely vary between machines, so a tighter
	// bound catches accidental per-event allocations — the exact
	// regression class the event-kernel PR removed.
	AllocTolerance float64
	// NProc is the core count of the host that produced the samples
	// (bench output does not record it); 0 skips the comparison.
	NProc int
}

func (o Options) withDefaults() Options {
	if o.Tolerance == 0 {
		o.Tolerance = 2.5
	}
	if o.AllocTolerance == 0 {
		o.AllocTolerance = 1.5
	}
	return o
}

// Check gates samples against the baseline. Every baseline benchmark
// must have at least one sample, and its best sample must be inside
// the tolerated ceiling. The returned verdicts are sorted by name;
// failed reports err == nil — inspect Verdict.Pass (Gate aggregates).
func Check(b Baseline, samples []Sample, opts Options) []Verdict {
	opts = opts.withDefaults()
	byName := make(map[string][]Sample)
	for _, s := range samples {
		byName[s.Name] = append(byName[s.Name], s)
	}
	var verdicts []Verdict
	for _, bm := range b.Benchmarks {
		v := Verdict{
			Name:        bm.Name,
			LimitNs:     bm.After.NsOpRange[1] * opts.Tolerance,
			MinAllocs:   -1,
			LimitAllocs: bm.After.AllocsOp * opts.AllocTolerance,
		}
		ss := byName[bm.Name]
		if len(ss) == 0 {
			v.Reason = "no samples in bench output"
			verdicts = append(verdicts, v)
			continue
		}
		v.Ran = true
		v.BestNs = ss[0].NsOp
		for _, s := range ss {
			if s.NsOp < v.BestNs {
				v.BestNs = s.NsOp
			}
			if s.AllocsOp >= 0 && (v.MinAllocs < 0 || s.AllocsOp < v.MinAllocs) {
				v.MinAllocs = s.AllocsOp
			}
		}
		switch {
		case v.BestNs > v.LimitNs:
			v.Reason = fmt.Sprintf("best %.0f ns/op exceeds ceiling %.0f (baseline upper %.0f x tolerance %.2g)",
				v.BestNs, v.LimitNs, bm.After.NsOpRange[1], opts.Tolerance)
		case v.MinAllocs >= 0 && bm.After.AllocsOp > 0 && v.MinAllocs > v.LimitAllocs:
			v.Reason = fmt.Sprintf("best %.0f allocs/op exceeds ceiling %.0f (baseline %.0f x tolerance %.2g)",
				v.MinAllocs, v.LimitAllocs, bm.After.AllocsOp, opts.AllocTolerance)
		case v.MinAllocs >= 0 && bm.After.AllocsOp == 0 && v.MinAllocs > 0:
			v.Reason = fmt.Sprintf("best %.0f allocs/op but the baseline is allocation-free", v.MinAllocs)
		default:
			v.Reason = checkFloors(bm, ss, opts)
			v.Pass = v.Reason == ""
		}
		verdicts = append(verdicts, v)
	}
	sort.Slice(verdicts, func(i, j int) bool { return verdicts[i].Name < verdicts[j].Name })
	return verdicts
}

// checkFloors enforces the benchmark's custom-metric floors against the
// samples: the best (maximum) value of each metric must reach
// floor / Tolerance (the same slack direction the ns/op ceiling grants a
// slow CI box). Returns "" when every floor holds.
func checkFloors(bm BaselineBenchmark, ss []Sample, opts Options) string {
	if len(bm.Floors) == 0 {
		return ""
	}
	units := make([]string, 0, len(bm.Floors))
	for u := range bm.Floors {
		units = append(units, u)
	}
	sort.Strings(units)
	for _, u := range units {
		best, seen := 0.0, false
		for _, s := range ss {
			if v, ok := s.Metrics[u]; ok && (!seen || v > best) {
				best, seen = v, true
			}
		}
		required := bm.Floors[u] / opts.Tolerance
		switch {
		case !seen:
			return fmt.Sprintf("metric %q not reported by any sample (floor %.0f)", u, bm.Floors[u])
		case best < required:
			return fmt.Sprintf("best %.0f %s below floor %.0f (baseline %.0f / tolerance %.2g)",
				best, u, required, bm.Floors[u], opts.Tolerance)
		}
	}
	return ""
}

// hostDiff describes how the samples' host differs from the baseline's,
// or returns "" when every fact known on both sides matches.
func hostDiff(b Baseline, samples []Sample, nproc int) string {
	var diffs []string
	if len(samples) > 0 {
		s := samples[0]
		if b.CPU != "" && s.CPU != "" && s.CPU != b.CPU {
			diffs = append(diffs, fmt.Sprintf("cpu %q (baseline %q)", s.CPU, b.CPU))
		}
		if b.GOMAXPROCS > 0 && s.Procs > 0 && s.Procs != b.GOMAXPROCS {
			diffs = append(diffs, fmt.Sprintf("gomaxprocs %d (baseline %d)", s.Procs, b.GOMAXPROCS))
		}
	}
	if b.NProc > 0 && nproc > 0 && nproc != b.NProc {
		diffs = append(diffs, fmt.Sprintf("nproc %d (baseline %d)", nproc, b.NProc))
	}
	return strings.Join(diffs, ", ")
}

// Gate runs Check and renders a report; it returns an error listing
// the failures if any benchmark regressed or is missing. A host that
// differs from the baseline's adds one "WARN host differs" line first;
// it does not change the verdict.
func Gate(w io.Writer, b Baseline, samples []Sample, opts Options) error {
	if d := hostDiff(b, samples, opts.NProc); d != "" {
		fmt.Fprintf(w, "WARN host differs: %s; bands measured elsewhere may not apply\n", d)
	}
	verdicts := Check(b, samples, opts)
	var failed []string
	for _, v := range verdicts {
		status := "ok  "
		detail := fmt.Sprintf("best %.0f ns/op <= ceiling %.0f", v.BestNs, v.LimitNs)
		if !v.Pass {
			status = "FAIL"
			detail = v.Reason
			failed = append(failed, v.Name)
		}
		fmt.Fprintf(w, "%s %-28s %s\n", status, v.Name, detail)
	}
	if len(failed) > 0 {
		return fmt.Errorf("perfgate: %d benchmark(s) regressed or missing: %s",
			len(failed), strings.Join(failed, ", "))
	}
	return nil
}
