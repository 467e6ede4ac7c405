package sim

// Microbenchmarks for the event kernel. BENCH_sim.json records the
// before/after numbers for the calendar-queue -> timing-wheel
// migration; regenerate with
//
//	go test ./internal/sim -bench 'BenchmarkEngine' -benchmem -count 5
//
// The dense case is the protocol simulator's actual shape: many events
// over a short, near-monotonic horizon (every message hop schedules a
// delivery a few hundred nanoseconds out). The sparse case spreads the
// same event count over a horizon six orders of magnitude wider. The
// cancel case measures lazy deletion against the timer-like pattern
// where most scheduled work is canceled before it fires. The burst case
// is one multicast delivery fanning out on a single tick; the bimodal
// case mixes near and far chains, the shape of the paper-reproduction
// sweeps.

import "testing"

// BenchmarkEngineSchedule measures raw At cost: scheduling into a
// standing population of pending events, without running them.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.At(Time(i%4096), fn)
	}
}

// BenchmarkEngineRunDense fires a dense, near-monotonic schedule: each
// event reschedules itself a short bounded distance ahead, the pattern
// every switch hop and controller service in the simulator produces.
func BenchmarkEngineRunDense(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		const chains = 64
		const perChain = 256
		fired := 0
		for c := 0; c < chains; c++ {
			c := c
			depth := 0
			var step func()
			step = func() {
				fired++
				depth++
				if depth < perChain {
					e.After(Time(1+(c*7+depth)%113), step)
				}
			}
			e.At(Time(c%13), step)
		}
		e.Run()
		if fired != chains*perChain {
			b.Fatalf("fired %d events, want %d", fired, chains*perChain)
		}
	}
}

// BenchmarkEngineRunSparse fires the same event count scattered over a
// horizon ~1e6 wider than the dense case, stressing bucket-cursor
// advance across mostly-empty regions.
func BenchmarkEngineRunSparse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		const n = 16384
		fired := 0
		t := Time(0)
		for j := 0; j < n; j++ {
			// Deterministic pseudo-random gaps up to ~2^27 ns.
			t += Time(1 + (uint64(j)*2654435761)%(1<<27))
			e.At(t, func() { fired++ })
		}
		e.Run()
		if fired != n {
			b.Fatalf("fired %d events, want %d", fired, n)
		}
	}
}

// BenchmarkEngineCancel schedules timer-like events and cancels most of
// them before they fire (the lazy-delete path).
func BenchmarkEngineCancel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		const n = 8192
		evs := make([]*Event, 0, n)
		for j := 0; j < n; j++ {
			evs = append(evs, e.At(Time(j%1024), func() {}))
		}
		for j, ev := range evs {
			if j%8 != 0 {
				e.Cancel(ev)
			}
		}
		e.Run()
	}
}

func burstNop(any) {}

// BenchmarkEngineRunBurst: one callback schedules 1024 events for one
// tick, as a multicast delivery to 1024 nodes does, and the burst
// drains. One op is one burst on a long-lived engine.
func BenchmarkEngineRunBurst(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	burst := func() {
		t := e.Now() + 50
		for j := 0; j < 1024; j++ {
			e.AtCall(t, burstNop, nil)
		}
	}
	for i := 0; i < b.N; i++ {
		e.After(100, burst)
		e.Run()
	}
}

// BenchmarkEngineRunBimodal runs 64 near chains (gaps of at most 200 ns)
// beside 8 far chains (gaps of 50-100 us) over a 200 us horizon: a
// dense near-future population with a few events far ahead of it.
func BenchmarkEngineRunBimodal(b *testing.B) {
	b.ReportAllocs()
	const horizon = 200_000
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for c := 0; c < 72; c++ {
			c, depth := c, 0
			var step func()
			step = func() {
				depth++
				gap := Time(1 + (c*7+depth)%200)
				if c >= 64 {
					gap = Time(50_000 + (c*7919+depth*104729)%50_000)
				}
				if e.Now()+gap < horizon {
					e.After(gap, step)
				}
			}
			e.At(Time(c%13), step)
		}
		e.Run()
	}
}
