package fuzz

import (
	"errors"
	"strings"
	"testing"

	"cenju4/internal/core"
	"cenju4/internal/cpu"
	"cenju4/internal/faults"
	"cenju4/internal/machine"
)

// smokeOptions is the bounded sweep wired into `go test`: the full
// pattern x cell matrix with a small per-case budget. `go test -short`
// trims the budget further so the suite stays fast in CI's quick lane.
func smokeOptions() Options {
	o := Options{Seed: 1, Ops: 1500, Rounds: 3}
	if testing.Short() {
		o.Ops = 400
		o.Rounds = 2
	}
	return o
}

// TestSmoke runs every pattern against every configuration cell and
// requires a clean bill: no oracle violations, no invariant failures,
// no deadlocks.
func TestSmoke(t *testing.T) {
	rep := mustRun(t, smokeOptions())
	if rep.Failed() {
		t.Fatalf("fuzz smoke failed:\n%s", rep.String())
	}
	if len(rep.Results) != len(AllPatterns())*len(DefaultCells()) {
		t.Fatalf("ran %d cases, want %d", len(rep.Results), len(AllPatterns())*len(DefaultCells()))
	}
}

// mustRun is Run for options the test knows to be valid.
func mustRun(t testing.TB, o Options) *Report {
	t.Helper()
	rep, err := Run(o)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

// TestOptionsValidate: options Run cannot execute are refused by Cases,
// with the machine's named errors for node and stage counts, and Run
// returns the same error without running a case. Without the check,
// Nodes: 3 failed every case with a harness panic and a negative op
// count ran an empty sweep.
func TestOptionsValidate(t *testing.T) {
	var badNodes *machine.InvalidNodeCountError
	var badStages *machine.InvalidStageCountError
	for _, tc := range []struct {
		name string
		o    Options
		want any // nil, or a pointer to the error type errors.As must find
		ok   bool
	}{
		{"defaults", Options{}, nil, true},
		{"1024 nodes at 6 stages", Options{Nodes: 1024, Cells: []Cell{{Stages: 6}}}, nil, true},
		{"3 nodes", Options{Nodes: 3}, &badNodes, false},
		{"2048 nodes", Options{Nodes: 2048}, &badNodes, false},
		{"64 nodes at default stages 2,4,6", Options{Nodes: 64}, &badStages, false},
		{"7 stages", Options{Cells: []Cell{{Stages: 7}}}, &badStages, false},
		{"negative ops", Options{Ops: -1}, nil, false},
		{"negative rounds", Options{Rounds: -1}, nil, false},
		{"malformed fault plan", Options{Fault: faults.Spec{Drop: 2}}, nil, false},
	} {
		cases, err := tc.o.Cases()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Cases() = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if tc.want != nil && !errors.As(err, tc.want) {
			t.Errorf("%s: Cases() = %v (%T), want %T", tc.name, err, err, tc.want)
		}
		if tc.ok {
			if len(cases) == 0 {
				t.Errorf("%s: Cases() is empty", tc.name)
			}
			continue
		}
		var progress strings.Builder
		tc.o.Progress = &progress
		rep, runErr := Run(tc.o)
		if rep != nil || runErr == nil || runErr.Error() != err.Error() {
			t.Errorf("%s: Run() = %v, %v; want nil, %v", tc.name, rep, runErr, err)
		}
		if progress.Len() != 0 {
			t.Errorf("%s: Run ran cases:\n%s", tc.name, progress.String())
		}
	}
}

// TestCasesAreTheSweep: Run executes exactly Cases, per-case fault
// plan and event budget included, and a case picked out of Cases by
// its seed and re-run fails as it did in the sweep. Under
// drop-forwards the queuing cases wedge and trip the watchdog.
func TestCasesAreTheSweep(t *testing.T) {
	spec, err := faults.ParseSpec("drop-forwards")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{
		Seed: 1, Ops: 300, Rounds: 2,
		Patterns:  []Pattern{PatternHotspot, PatternMigratory},
		Cells:     Matrix([]int{4})[:2],
		Fault:     spec,
		MaxEvents: DefaultChaosBudget,
	}
	cases, err := o.Cases()
	if err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, o)
	if len(rep.Results) != len(cases) {
		t.Fatalf("Run ran %d cases, Cases has %d", len(rep.Results), len(cases))
	}
	watchdogs := 0
	for i, res := range rep.Results {
		if res.Case != cases[i] {
			t.Fatalf("case %d: Run ran %+v, Cases has %+v", i, res.Case, cases[i])
		}
		if res.Watchdog {
			watchdogs++
		}
	}
	if watchdogs == 0 {
		t.Fatalf("drop-forwards tripped no watchdog:\n%s", rep)
	}
	for i, res := range rep.Results {
		var c Case
		for _, cc := range cases {
			if cc.Seed == res.Case.Seed {
				c = cc
			}
		}
		again := RunOps(c, Generate(c.Pattern, c.Seed, c.Nodes, c.Ops))
		if again.Panic != res.Panic || again.Watchdog != res.Watchdog {
			t.Errorf("case %d (%v): replay gave watchdog=%v panic %q, sweep gave watchdog=%v panic %q",
				i, c, again.Watchdog, again.Panic, res.Watchdog, res.Panic)
		}
	}
}

// TestInjectedInvalidationBugCaught plants the classic directory bug —
// slaves skip the invalidation but still acknowledge — and requires the
// oracle to catch the resulting stale load and shrink it to a small
// reproducer.
func TestInjectedInvalidationBugCaught(t *testing.T) {
	rep := mustRun(t, Options{
		Seed: 1, Ops: 600, Rounds: 2,
		Faults:   &core.Faults{SkipInvalidate: true},
		Patterns: []Pattern{PatternHotspot},
		Cells: []Cell{
			{Mode: core.ModeQueuing, Multicast: true, Stages: 2},
			{Mode: core.ModeNack, Multicast: true, Stages: 2},
		},
		Shrink: true, MaxShrinkRuns: 200,
	})
	fails := rep.Failures()
	if len(fails) == 0 {
		t.Fatalf("injected invalidation bug not caught:\n%s", rep.String())
	}
	r := fails[0]
	orig := r.Loads + r.Stores
	if r.Reproducer == "" || r.ShrunkOps >= orig {
		t.Fatalf("no useful shrink: %d ops -> %d (reproducer %q)", orig, r.ShrunkOps, r.Reproducer)
	}
	if r.ShrunkOps > 24 {
		t.Errorf("reproducer still has %d ops; expected a tight shrink", r.ShrunkOps)
	}
	// The minimized streams must still fail when re-executed directly.
	if caught := oracleOrValidatorCaught(r); !caught {
		t.Errorf("failure carried no oracle violation or validator error:\n%s", rep.String())
	}
}

func oracleOrValidatorCaught(r *Result) bool {
	return r.TotalViolations > 0 || r.ValidateErr != "" || r.Panic != ""
}

// TestInjectedReservationBugCaught plants the queuing protocol's
// subtlest bug — the home never sets the reservation bit, so a drained
// queue's requests are forgotten — and requires the harness to flag the
// resulting deadlock (captured panic plus idle-queue invariant) without
// crashing the test process.
func TestInjectedReservationBugCaught(t *testing.T) {
	rep := mustRun(t, Options{
		Seed: 1, Ops: 600, Rounds: 2,
		Faults:   &core.Faults{SkipReservation: true},
		Patterns: []Pattern{PatternHotspot, PatternMigratory},
		Cells:    []Cell{{Mode: core.ModeQueuing, Multicast: true, Stages: 2}},
		Shrink:   true, MaxShrinkRuns: 200,
	})
	fails := rep.Failures()
	if len(fails) == 0 {
		t.Fatalf("injected reservation bug not caught:\n%s", rep.String())
	}
	sawDeadlock := false
	for _, r := range fails {
		if strings.Contains(r.Panic, "never finished") || strings.Contains(r.ValidateErr, "queue") {
			sawDeadlock = true
		}
	}
	if !sawDeadlock {
		t.Errorf("reservation bug failures did not look like a deadlock:\n%s", rep.String())
	}
}

// TestInjectedStaleReadBugCaught plants a home that serves dirty blocks
// straight from memory.
func TestInjectedStaleReadBugCaught(t *testing.T) {
	rep := mustRun(t, Options{
		Seed: 1, Ops: 600, Rounds: 2,
		Faults:   &core.Faults{StaleDirtyRead: true},
		Patterns: []Pattern{PatternMigratory},
		Cells:    []Cell{{Mode: core.ModeQueuing, Multicast: true, Stages: 2}},
	})
	if len(rep.Failures()) == 0 {
		t.Fatalf("injected stale-read bug not caught:\n%s", rep.String())
	}
}

// TestReportDeterminism: same seed and options must reproduce a
// byte-identical report — the property that makes -replay useful.
func TestReportDeterminism(t *testing.T) {
	opts := Options{Seed: 42, Ops: 300, Rounds: 2,
		Patterns: []Pattern{PatternUniform, PatternEviction},
		Cells: []Cell{
			{Mode: core.ModeQueuing, Multicast: true, Update: true, Stages: 2},
			{Mode: core.ModeNack, Multicast: false, Stages: 4},
		}}
	a := mustRun(t, opts).String()
	b := mustRun(t, opts).String()
	if a != b {
		t.Fatalf("reports differ for identical seed:\n--- first\n%s--- second\n%s", a, b)
	}
}

// TestGenerateDeterminism: stream generation is a pure function of
// (pattern, seed, nodes, ops).
func TestGenerateDeterminism(t *testing.T) {
	for _, p := range AllPatterns() {
		a := Generate(p, 7, 8, 400)
		b := Generate(p, 7, 8, 400)
		if FormatOps(a) != FormatOps(b) {
			t.Fatalf("%v: generation not deterministic", p)
		}
		if l, s := CountOps(a); l+s == 0 {
			t.Fatalf("%v: generated no accesses", p)
		}
		if len(Universe(a)) == 0 {
			t.Fatalf("%v: empty shared-block universe", p)
		}
	}
}

// TestShrinkPreservesFailure: the shrinker only ever keeps candidates
// that still fail, and the result re-fails when executed.
func TestShrinkPreservesFailure(t *testing.T) {
	c := Case{
		Seed: CaseSeed(1, 0), Nodes: 8, Ops: 400, Rounds: 2,
		Pattern: PatternHotspot,
		Cell:    Cell{Mode: core.ModeQueuing, Multicast: true, Stages: 2},
		Faults:  &core.Faults{SkipInvalidate: true},
	}
	ops := Generate(c.Pattern, c.Seed, c.Nodes, c.Ops)
	if !RunOps(c, ops).Failed() {
		t.Skip("seed did not trigger the injected bug at this budget")
	}
	min, runs := Shrink(c, ops, 200)
	if runs == 0 {
		t.Fatal("shrinker did no work")
	}
	if !RunOps(c, min).Failed() {
		t.Fatal("shrunk reproducer no longer fails")
	}
}

// TestParsePattern covers the CLI name round-trip.
func TestParsePattern(t *testing.T) {
	for _, p := range AllPatterns() {
		got, err := ParsePattern(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePattern(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePattern("bogus"); err == nil {
		t.Fatal("ParsePattern accepted a bogus name")
	}
}

// TestRoundSlice: the rounds partition exactly covers the stream.
func TestRoundSlice(t *testing.T) {
	ops := make([]cpu.Op, 10)
	total := 0
	for r := 0; r < 4; r++ {
		total += len(roundSlice(ops, r, 4))
	}
	if total != len(ops) {
		t.Fatalf("rounds cover %d of %d ops", total, len(ops))
	}
	if got := roundSlice(nil, 0, 4); len(got) != 0 {
		t.Fatalf("empty stream sliced to %d ops", len(got))
	}
}
