package fuzz

import (
	"strings"
	"testing"

	"cenju4/internal/core"
	"cenju4/internal/faults"
)

// smokeFuzz is the small matrix the chaos self-tests sweep: two
// sharing-heavy patterns over both protocol modes, enough traffic to
// exercise every fault class without slowing `go test`.
func smokeFuzz(seed uint64) Options {
	return Options{
		Seed:     seed,
		Nodes:    8,
		Ops:      400,
		Rounds:   2,
		Patterns: []Pattern{PatternHotspot, PatternMigratory},
		Cells: []Cell{
			{Mode: core.ModeQueuing, Multicast: true, Stages: 4},
			{Mode: core.ModeNack, Multicast: true, Stages: 4},
		},
	}
}

func TestChaosGridMeetsContracts(t *testing.T) {
	rep, err := RunChaos(ChaosOptions{Fuzz: smokeFuzz(42), CheckParallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("chaos sweep failed:\n%s", rep)
	}
	var sawRecover, sawWatchdog bool
	for _, v := range rep.Verdicts {
		if v.Plan.ExpectRecover {
			sawRecover = true
			if v.Completed == 0 {
				t.Errorf("plan %s: no case completed", v.Plan.Name)
			}
		} else {
			sawWatchdog = true
			if v.Watchdogs == 0 {
				t.Errorf("plan %s: watchdog never tripped", v.Plan.Name)
			}
		}
	}
	if !sawRecover || !sawWatchdog {
		t.Fatal("default grid must include both recoverable and unrecoverable plans")
	}
	out := rep.String()
	for _, want := range []string{"first diagnosis", "retransmits exhausted", "all plans met"} {
		if !strings.Contains(out, want) {
			t.Errorf("chaos report missing %q:\n%s", want, out)
		}
	}
}

func TestFaultSweepDigestsIdenticalAcrossParallelism(t *testing.T) {
	o := smokeFuzz(7)
	o.Fault = faults.Spec{Seed: 7, Drop: 0.02, Dup: 0.02, Corrupt: 0.01}.Normalize()
	par := o
	par.Parallel = 4
	seq := o
	seq.Parallel = 1
	pr, sr := mustRun(t, par), mustRun(t, seq)
	if pr.String() != sr.String() {
		t.Fatalf("reports differ across parallelism:\n--- parallel ---\n%s--- sequential ---\n%s", pr, sr)
	}
	for i := range pr.Results {
		if pr.Results[i].Digest == "" {
			t.Fatalf("case %v completed without a digest", pr.Results[i].Case)
		}
		if pr.Results[i].Digest != sr.Results[i].Digest {
			t.Fatalf("case %v digest differs: %s vs %s",
				pr.Results[i].Case, pr.Results[i].Digest, sr.Results[i].Digest)
		}
	}
}

func TestFaultSweepSeedsDiverge(t *testing.T) {
	a := smokeFuzz(7)
	a.Fault = faults.Spec{Seed: 7, Drop: 0.05}.Normalize()
	b := smokeFuzz(7)
	b.Fault = faults.Spec{Seed: 8, Drop: 0.05}.Normalize()
	ra, rb := mustRun(t, a), mustRun(t, b)
	same := true
	for i := range ra.Results {
		if ra.Results[i].Digest != rb.Results[i].Digest {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different fault seeds produced identical digests on every case (placebo)")
	}
}

func TestEventBudgetAbortIsNotAWatchdogTrip(t *testing.T) {
	c := Case{
		Seed: 1, Nodes: 8, Ops: 400, Rounds: 1,
		Pattern:   PatternHotspot,
		Cell:      Cell{Mode: core.ModeQueuing, Multicast: true, Stages: 4},
		MaxEvents: 100,
	}
	res := RunOps(c, Generate(c.Pattern, c.Seed, c.Nodes, c.Ops))
	if res.Panic == "" || !strings.Contains(res.Panic, "event budget") {
		t.Fatalf("budget overrun not reported: %q", res.Panic)
	}
	if res.Watchdog {
		t.Fatal("budget abort misclassified as a watchdog trip")
	}
}
