package fuzz

// Determinism-equivalence for the parallel sweep: the rendered report —
// the tool's actual observable output — must be byte-identical whether
// cases run sequentially or sharded across eight workers. This is one
// of the two headline guarantees of the runner rework (the other is the
// event-queue differential test in internal/sim) and runs under
// -race in CI's race job.

import (
	"bytes"
	"testing"

	"cenju4/internal/core"
)

func equivalenceOptions(parallel int) Options {
	return Options{
		Seed:     42,
		Nodes:    4,
		Ops:      150,
		Rounds:   2,
		Patterns: AllPatterns(),
		Cells: []Cell{
			{Mode: core.ModeQueuing, Multicast: true, Stages: 2},
			{Mode: core.ModeNack, Multicast: false, Stages: 2},
			{Mode: core.ModeQueuing, Multicast: true, Update: true, Stages: 2},
		},
		Parallel: parallel,
	}
}

func TestParallelReportByteIdentical(t *testing.T) {
	seq := mustRun(t, equivalenceOptions(1)).String()
	for _, workers := range []int{2, 8} {
		par := mustRun(t, equivalenceOptions(workers)).String()
		if par != seq {
			t.Fatalf("parallel=%d report differs from sequential:\n--- sequential ---\n%s--- parallel ---\n%s",
				workers, seq, par)
		}
	}
}

// TestParallelProgressByteIdentical: the per-case progress stream is
// also emitted in case order regardless of completion order.
func TestParallelProgressByteIdentical(t *testing.T) {
	var seqBuf, parBuf bytes.Buffer
	o := equivalenceOptions(1)
	o.Progress = &seqBuf
	mustRun(t, o)
	o = equivalenceOptions(8)
	o.Progress = &parBuf
	mustRun(t, o)
	if seqBuf.String() != parBuf.String() {
		t.Fatalf("progress streams differ:\n--- sequential ---\n%s--- parallel ---\n%s",
			seqBuf.String(), parBuf.String())
	}
}

// TestParallelFailureReporting: an injected protocol bug is detected
// and reported identically at both parallelism levels (shrinking
// included — the shrinker runs inside the worker).
func TestParallelFailureReporting(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking sweep is slow under -short")
	}
	opts := func(parallel int) Options {
		o := equivalenceOptions(parallel)
		o.Faults = &core.Faults{SkipInvalidate: true}
		o.Shrink = true
		o.MaxShrinkRuns = 40
		return o
	}
	seq := mustRun(t, opts(1))
	par := mustRun(t, opts(8))
	if !seq.Failed() {
		t.Fatal("injected fault not detected")
	}
	if seq.String() != par.String() {
		t.Fatalf("failure reports differ:\n--- sequential ---\n%s--- parallel ---\n%s",
			seq.String(), par.String())
	}
}
