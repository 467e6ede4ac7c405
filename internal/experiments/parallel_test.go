package experiments

// Determinism-equivalence for the experiment sweeps: every Render()
// string — the suite's actual observable output — must be
// byte-identical whether the runs execute sequentially or sharded
// across eight workers. Together with the fuzz report test in
// internal/fuzz and the event-queue differential test in
// internal/sim this locks down the parallel-runner rework; the cheap
// half runs under -race in CI's race job.

import (
	"testing"

	"cenju4/internal/npb"
)

func diffRender(t *testing.T, name, seq, par string) {
	t.Helper()
	if seq != par {
		t.Errorf("%s: parallel render differs from sequential:\n--- sequential ---\n%s--- parallel ---\n%s",
			name, seq, par)
	}
}

func TestParallelRenderByteIdentical(t *testing.T) {
	seq := Config{Scale: 0.03, Iterations: 1, Trials: 40, Seed: 3, Parallel: 1}
	par := seq
	par.Parallel = 8
	diffRender(t, "fig4", Figure4(seq).Render(), Figure4(par).Render())
	diffRender(t, "ablation-threshold",
		AblationSinglecastThreshold(seq, 32).Render(), AblationSinglecastThreshold(par, 32).Render())
	diffRender(t, "ablation-imprecision",
		AblationImprecision(seq, 128, 7).Render(), AblationImprecision(par, 128, 7).Render())
	if testing.Short() {
		return // the application sweeps below dominate the runtime
	}
	diffRender(t, "fig11", Figure11(seq).Render(), Figure11(par).Render())
	diffRender(t, "fig12", Figure12(seq).Render(), Figure12(par).Render())
	diffRender(t, "table3", Table3(seq).Render(), Table3(par).Render())
	diffRender(t, "table4", Table4(seq).Render(), Table4(par).Render())
}

// TestRunJobsPanicPropagates: a panicking run must surface to the
// caller with its index and label context, matching the old serial
// loops' behavior.
func TestRunJobsPanicPropagates(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("worker panic did not propagate")
		}
		if s, ok := v.(string); !ok || s == "" {
			t.Fatalf("panic value %v (%T), want descriptive string", v, v)
		}
	}()
	// npb.Build rejects the seq variant on more than one node, which
	// makes runOne panic inside the worker.
	runJobs(Config{Parallel: 4}, []appJob{{app: npb.CG, v: npb.Seq, nodes: 2}})
}
