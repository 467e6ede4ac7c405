package workersafety_test

import (
	"testing"

	"cenju4/internal/analysis/analysistest"
	"cenju4/internal/analysis/passes/workersafety"
)

// TestRunnerClosures checks the captured-write rule (inherited from the
// determinism pass, generalized here): writes to captured and
// package-level variables inside runner.Map/MapEach worker fns are
// flagged in any package, while worker-local state, nested callbacks
// and the serialized each callback stay clean.
func TestRunnerClosures(t *testing.T) {
	analysistest.Run(t, "testdata/runnerclosure", workersafety.Analyzer)
}

// TestTransitiveGlobalWrites checks the call-graph side: a worker that
// reaches a package-level write through calls — direct, via an
// intermediate helper, or as a named worker function — is flagged with
// the chain down to the write.
func TestTransitiveGlobalWrites(t *testing.T) {
	analysistest.RunDirs(t, workersafety.Analyzer,
		"testdata/globalsink", "testdata/sweep")
}
