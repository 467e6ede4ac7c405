// Fixture for the interprocedural side of the workersafety rule: worker
// closures (and named workers) that never write anything syntactically
// themselves, but reach package-level writes through calls — including
// through an intermediate helper in this package.
package sweep

import (
	"cenju4/internal/runner"
	"cenju4/lintfixture/globalsink"
)

// tallyAll is the intermediate hop: clean itself, tainted via callee.
func tallyAll(i int) int {
	return globalsink.Bump(i)
}

func closureCallsTainted(n int) {
	runner.Map(runner.Options{}, n, func(i int) int {
		return globalsink.Bump(i) // want `worker closure passed to runner.Map calls globalsink\.Bump, which transitively writes package-level state: globalsink\.Bump: non-atomic read-modify-write of package-level hits \(globalsink\.go:\d+\)`
	})
}

func closureCallsTaintedViaMiddle(n int) {
	runner.MapEach(runner.Options{}, n, func(i int) int {
		return tallyAll(i) // want `worker closure passed to runner.MapEach calls sweep\.tallyAll, which transitively writes package-level state: sweep\.tallyAll -> globalsink\.Bump: non-atomic read-modify-write of package-level hits \(globalsink\.go:\d+\)`
	}, nil)
}

func namedWorkerTainted(n int) {
	runner.Map(runner.Options{}, n, globalsink.Record) // want `worker globalsink\.Record passed to runner\.Map transitively writes package-level state: globalsink\.Record: writes package-level lastValue \(globalsink\.go:\d+\)`
}

func cleanCalls(n int) {
	runner.Map(runner.Options{}, n, func(i int) int {
		return globalsink.Observe(i)
	})
}
