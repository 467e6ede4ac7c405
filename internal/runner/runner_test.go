package runner

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMapOrderIndependence: for a fn whose output depends only on its
// index, every parallelism level must return the identical result
// slice.
func TestMapOrderIndependence(t *testing.T) {
	const n = 257
	fn := func(i int) int { return i*i + 7 }
	seq, p := Map(Options{Parallel: 1}, n, fn)
	if len(p) != 0 {
		t.Fatalf("sequential run panicked: %v", p[0])
	}
	for _, workers := range []int{2, 4, 8, 0} {
		par, p := Map(Options{Parallel: workers}, n, fn)
		if len(p) != 0 {
			t.Fatalf("parallel=%d run panicked: %v", workers, p[0])
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("parallel=%d: result[%d]=%d, sequential %d", workers, i, par[i], seq[i])
			}
		}
	}
}

// TestMapEachAscendingOrder: the each callback fires exactly once per
// run in strictly ascending index order, regardless of completion
// order.
func TestMapEachAscendingOrder(t *testing.T) {
	const n = 512
	var order []int
	_, p := MapEach(Options{Parallel: 8}, n,
		func(i int) int {
			// Skew work so later indices often finish first.
			x := 0
			for k := 0; k < (n-i)*50; k++ {
				x += k
			}
			return x
		},
		func(i int, _ int) { order = append(order, i) })
	if len(p) != 0 {
		t.Fatalf("panics: %v", p[0])
	}
	if len(order) != n {
		t.Fatalf("each fired %d times, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("each order[%d] = %d, want %d", i, got, i)
		}
	}
}

// TestMapPanicCapture: a panicking run is reported with index, label
// and stack while the rest of the fleet completes.
func TestMapPanicCapture(t *testing.T) {
	const n = 64
	var completed atomic.Int64
	results, panics := Map(
		Options{
			Parallel: 4,
			Label:    func(i int) string { return fmt.Sprintf("cfg=%d seed=%d", i%4, i) },
		},
		n,
		func(i int) int {
			if i == 13 || i == 40 {
				panic(fmt.Sprintf("boom %d", i))
			}
			completed.Add(1)
			return i
		})
	if got := completed.Load(); got != n-2 {
		t.Fatalf("%d runs completed, want %d", got, n-2)
	}
	if len(panics) != 2 {
		t.Fatalf("%d panics captured, want 2: %v", len(panics), panics)
	}
	if panics[0].Index != 13 || panics[1].Index != 40 {
		t.Fatalf("panic indices %d,%d, want 13,40", panics[0].Index, panics[1].Index)
	}
	if panics[0].Label != "cfg=1 seed=13" {
		t.Fatalf("panic label %q", panics[0].Label)
	}
	if panics[0].Value != "boom 13" {
		t.Fatalf("panic value %v", panics[0].Value)
	}
	if !strings.Contains(panics[0].Stack, "runner") {
		t.Fatalf("panic stack missing frames:\n%s", panics[0].Stack)
	}
	if !strings.Contains(panics[0].Error(), "run 13 (cfg=1 seed=13) panicked: boom 13") {
		t.Fatalf("panic Error() = %q", panics[0].Error())
	}
	// Panicked slots hold the zero value; others their result.
	if results[13] != 0 || results[12] != 12 {
		t.Fatalf("results[13]=%d results[12]=%d", results[13], results[12])
	}
}

// TestMapEachSkipsPanickedRuns: each is not invoked for a panicked
// index but still fires, in order, for everything after it.
func TestMapEachSkipsPanickedRuns(t *testing.T) {
	const n = 32
	var order []int
	_, panics := MapEach(Options{Parallel: 4}, n,
		func(i int) int {
			if i == 5 {
				panic("no")
			}
			return i
		},
		func(i int, _ int) { order = append(order, i) })
	if len(panics) != 1 || panics[0].Index != 5 {
		t.Fatalf("panics = %v", panics)
	}
	if len(order) != n-1 {
		t.Fatalf("each fired %d times, want %d", len(order), n-1)
	}
	prev := -1
	for _, i := range order {
		if i == 5 {
			t.Fatal("each fired for the panicked index")
		}
		if i <= prev {
			t.Fatalf("each order not ascending: %v", order)
		}
		prev = i
	}
}

// TestMapEmpty: n <= 0 is a no-op.
func TestMapEmpty(t *testing.T) {
	res, p := Map(Options{}, 0, func(i int) int { return i })
	if res != nil || p != nil {
		t.Fatalf("Map(0) = %v, %v, want nil, nil", res, p)
	}
}

// TestMapContextPreCancelled: a cancelled context skips every run.
func TestMapContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	for _, workers := range []int{1, 4} {
		results, p := Map(Options{Parallel: workers, Context: ctx}, 64, func(i int) int {
			ran.Add(1)
			return i + 1
		})
		if len(p) != 0 {
			t.Fatalf("parallel=%d: unexpected panics: %v", workers, p)
		}
		if ran.Load() != 0 {
			t.Fatalf("parallel=%d: %d runs executed under a cancelled context", workers, ran.Load())
		}
		for i, r := range results {
			if r != 0 {
				t.Fatalf("parallel=%d: skipped run %d has non-zero result %d", workers, i, r)
			}
		}
	}
}

// TestMapContextCancelMidSweep: cancelling after run 0 (sequentially)
// skips the remaining runs and fires no callbacks for them.
func TestMapContextCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls []int
	results, p := MapEach(Options{Parallel: 1, Context: ctx}, 100,
		func(i int) int {
			if i == 2 {
				cancel()
			}
			return i + 1
		},
		func(i, r int) { calls = append(calls, i) })
	if len(p) != 0 {
		t.Fatalf("unexpected panics: %v", p)
	}
	if want := []int{0, 1, 2}; len(calls) != len(want) {
		t.Fatalf("callbacks for %v, want %v", calls, want)
	}
	for i := 3; i < 100; i++ {
		if results[i] != 0 {
			t.Fatalf("run %d executed after cancellation", i)
		}
	}
	if err := ctx.Err(); err == nil {
		t.Fatal("context not cancelled — test is vacuous")
	}
}

// TestMapNilContextRunsEverything: existing call sites pass no
// context and must be unaffected.
func TestMapNilContextRunsEverything(t *testing.T) {
	results, p := Map(Options{Parallel: 4}, 50, func(i int) int { return i })
	if len(p) != 0 || len(results) != 50 {
		t.Fatalf("results=%d panics=%d, want 50/0", len(results), len(p))
	}
}

// TestMapEachCancelDeliversCompletedStragglers: regression for the
// cursor stall on cancellation. Run 0 is slow; runs 1..3 complete
// before the context is cancelled (from inside run 3); runs 4..5 are
// claimed after cancellation and skipped. The skipped indices must be
// marked settled so that when run 0 finally completes, the callbacks
// for the already-completed runs 1..3 are delivered rather than
// silently suppressed.
func TestMapEachCancelDeliversCompletedStragglers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var mu sync.Mutex
	var calls []int

	results, p := MapEach(Options{Parallel: 2, Context: ctx}, 6,
		func(i int) int {
			if i == 0 {
				<-release // straggler: finishes after the sweep is cancelled
				return 1
			}
			if i == 3 {
				cancel()
				close(release)
			}
			return i + 1
		},
		func(i, r int) {
			mu.Lock()
			calls = append(calls, i)
			mu.Unlock()
		})

	if len(p) != 0 {
		t.Fatalf("unexpected panics: %v", p)
	}
	if want := "[0 1 2 3]"; fmt.Sprint(calls) != want {
		t.Fatalf("callbacks %v, want %s (completed prefix including stragglers)", calls, want)
	}
	for i := 4; i < 6; i++ {
		if results[i] != 0 {
			t.Fatalf("run %d executed after cancellation (result %d)", i, results[i])
		}
	}
}
