package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestMetricNameGrammar(t *testing.T) {
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"wall_s", true},
		{"directory.inv_targets_per_inval", true},
		{"9lives", true},
		{"a-b.c_d", true},
		{strings.Repeat("x", 64), true},
		{strings.Repeat("x", 65), false},
		{"", false},
		{"_lead", false},
		{".lead", false},
		{"has space", false},
		{"slash/name", false},
		{"core/nacks", false},
		{"p99%", false},
	} {
		err := metricSet{}.add(tc.name, "s", 1)
		if (err == nil) != tc.ok {
			t.Errorf("add(%q): err = %v, want ok = %v", tc.name, err, tc.ok)
		}
	}
	ms := metricSet{}
	if err := ms.add("wall_s", "s", 1); err != nil {
		t.Fatal(err)
	}
	if err := ms.add("wall_s", "s", 2); err == nil {
		t.Error("duplicate metric accepted")
	}
	if err := ms.add("nan_s", "s", math.NaN()); err == nil {
		t.Error("NaN accepted")
	}
}

// The percentile rule: at least minBeyond samples must lie beyond the
// reported rank, so p50 needs 20 samples and p90 needs 100.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // 0 = must fail
	}{
		{19, 50, 0},
		{20, 50, 10},
		{21, 50, 11},
		{99, 90, 0},
		{100, 90, 90},
		{168, 90, 152}, // a fuzz-matrix sweep: 16 beyond
		{168, 95, 0},   // only 8 beyond
		{1000, 99, 990},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("p%v of %d samples = %v, want refusal", tc.p, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%v of %d samples = %v, %v; want %v", tc.p, tc.n, got, err, tc.want)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// A run's times are scaled by the reference probe time over the median
// probe time: a host twice as slow as the reference halves them.
func TestHostScale(t *testing.T) {
	ref := probeRef.Seconds()
	if got := hostScale([]float64{3 * ref, 2 * ref, ref}); got != 0.5 {
		t.Errorf("hostScale = %v, want 0.5", got)
	}
	if p := hostProbe(); p <= 0 || p > time.Second {
		t.Errorf("hostProbe = %v, want a few milliseconds", p)
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"cenju4/internal/sim.(*Engine).Run":                                     "cenju4/internal/sim",
		"cenju4/internal/core.(*Controller).handle.func1":                       "cenju4/internal/core",
		"cenju4/internal/runner.Map[go.shape.struct { cenju4/internal/npb.X }]": "cenju4/internal/runner",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "internal/runtime/maps",
		"main.main":                               "main",
		"compress/flate.(*compressor).deflate":    "compress/flate",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"cenju4/internal/network.(*Network).Send", "cenju4/internal/core.(*Controller).home"}, "network"},
		{[]string{"cenju4/internal/sim.(*Engine).Run", "main.main"}, "sim"},
		// Any GC frame on the stack claims the sample, whatever the leaf.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc", "cenju4/internal/msg.New"}, "gc"},
		{[]string{"runtime.mallocgc", "cenju4/internal/msg.New"}, "runtime"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey"}, "runtime"},
		{[]string{"sort.Slice", "cenju4/internal/fuzz.sortAddrs"}, "stdlib"},
		{[]string{"main.runFor"}, "perfbench"},
		{nil, "unknown"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	x := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

// A real profile from runtime/pprof decodes, and the time this package
// burns is grouped under "perfbench"; the scaled shares sum to the CPU
// time they are scaled to.
func TestProfileGrouping(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Skip("no samples collected")
	}
	self := p.selfTime(time.Second)
	var total int64
	for _, ns := range self {
		total += ns
	}
	if total < int64(time.Second)-int64(len(self)) || total > int64(time.Second) {
		t.Errorf("shares sum to %v, want 1s", time.Duration(total))
	}
	if self["perfbench"] < total/2 {
		t.Errorf("perfbench self = %v of %v; table:\n%s", time.Duration(self["perfbench"]), time.Duration(total), profileTable(self, 1))
	}
	if _, err := parseProfile([]byte{0x0a, 0x05}); err == nil {
		t.Error("truncated profile accepted")
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("run")
	inner := tr.begin("machine.run")
	time.Sleep(2 * time.Millisecond)
	inner()
	outer()
	total, self := tr.totals()
	if self["run"] < 0 || self["run"] >= total["run"] || total["run"] < total["machine.run"] {
		t.Errorf("total %v self %v", total, self)
	}
	var nilTracer *tracer
	nilTracer.begin("x")() // untraced mode records nothing and must not panic
}

// Negative control: the cg-1024 run checked against a wrong pinned
// digest is reported as a failed check, not as a result.
func TestWrongPinnedDigestFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 1024-node machine")
	}
	it := runCG(nil, strings.Repeat("0", 64))
	if it.attempted != 1 || it.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 1 and 1 (failures %v)", it.attempted, it.failed, it.failures)
	}
	if !strings.Contains(it.failures[0], "pinned") {
		t.Errorf("failure %q does not name the pinned digest", it.failures[0])
	}
	// The pinned digest itself holds at this commit.
	if it := runCG(nil, cgDigest); it.failed != 0 {
		t.Errorf("pinned digest fails: %v", it.failures)
	}
}

func TestWrongPinnedReportHashFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole paper-quick reproduction")
	}
	wrong := map[string]string{}
	for k, v := range paperHashes {
		wrong[k] = v
	}
	wrong["fig10"] = "0000000000000000"
	it := runPaper(nil, wrong)
	if it.attempted != len(paperSteps) || it.failed != 1 {
		t.Fatalf("attempted %d failed %d, want %d and 1 (failures %v)", it.attempted, it.failed, len(paperSteps), it.failures)
	}
}
