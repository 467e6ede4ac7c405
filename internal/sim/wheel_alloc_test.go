package sim

import "testing"

func sparseAllocNop(any) {}

// TestSparseScheduleAllocs: the BenchmarkEngineRunSparse schedule shape
// (16384 events spread over a 2^27 ns horizon, so most pushes land in
// upper wheel levels and cascade) must be allocation-free in steady
// state.
//
// The measured round uses AtCall with a static callback so the queue
// and the event pool are the only possible allocators.
func TestSparseScheduleAllocs(t *testing.T) {
	eng := NewEngine()
	round := func() {
		tt := eng.Now() // rounds accumulate on the engine clock
		for j := 0; j < 16384; j++ {
			tt += Time(1 + (uint64(j)*2654435761)%(1<<27))
			eng.AtCall(tt, sparseAllocNop, nil)
		}
		eng.Run()
	}
	round() // warm: event slabs and free list grown
	if allocs := testing.AllocsPerRun(5, round); allocs > 8 {
		t.Fatalf("sparse steady-state round allocated %.0f times; want ~0 (per-push allocation regressed)", allocs)
	}
}
