package npb

import (
	"testing"

	"cenju4/internal/cpu"
	"cenju4/internal/machine"
	"cenju4/internal/shmem"
)

func runWorkload(t testing.TB, opts Options) (machine.Result, *Workload) {
	t.Helper()
	w, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.Config{Nodes: opts.Nodes, Multicast: true, UpdateMode: w.UpdateMode})
	r := m.Run(w.Progs)
	if err := m.Validate(); err != nil {
		t.Fatalf("coherence violated by %v/%v: %v", opts.App, opts.Variant, err)
	}
	return r, w
}

func TestBuildAllAppsAllVariants(t *testing.T) {
	for _, app := range Apps() {
		for _, v := range []Variant{MPI, DSM1, DSM2} {
			opts := Options{App: app, Variant: v, Nodes: 4, DataMapping: true, Iterations: 1, Scale: 0.01}
			r, w := runWorkload(t, opts)
			if len(w.Progs) != 4 {
				t.Fatalf("%v/%v: %d programs", app, v, len(w.Progs))
			}
			tot := r.Totals()
			if tot.Instructions == 0 || tot.MemAccesses == 0 {
				t.Fatalf("%v/%v: empty execution %+v", app, v, tot)
			}
		}
		r, _ := runWorkload(t, Options{App: app, Variant: Seq, Nodes: 1, Iterations: 1, Scale: 0.01})
		if r.Totals().RemoteAccesses != 0 || r.Totals().LocalAccesses != 0 {
			t.Fatalf("%v/seq touched shared memory", app)
		}
	}
}

func TestSeqRequiresOneNode(t *testing.T) {
	if _, err := Build(Options{App: BT, Variant: Seq, Nodes: 4}); err == nil {
		t.Fatal("seq on 4 nodes did not error")
	}
}

func TestMappingLocalizesMisses(t *testing.T) {
	// With data mappings, dsm programs must have far fewer remote misses
	// than without (Table 3's headline shift).
	for _, app := range []App{BT, FT} {
		mapped, _ := runWorkload(t, Options{App: app, Variant: DSM1, Nodes: 8, DataMapping: true, Iterations: 2, Scale: 0.02})
		unmapped, _ := runWorkload(t, Options{App: app, Variant: DSM1, Nodes: 8, DataMapping: false, Iterations: 2, Scale: 0.02})
		mr := float64(mapped.Totals().RemoteMisses) / float64(mapped.Totals().Misses)
		ur := float64(unmapped.Totals().RemoteMisses) / float64(unmapped.Totals().Misses)
		if mr >= ur {
			t.Errorf("%v: remote miss share mapped %.2f >= unmapped %.2f", app, mr, ur)
		}
	}
}

func TestDSM2ShiftsMissesToPrivate(t *testing.T) {
	for _, app := range []App{BT, FT, SP} {
		d1, _ := runWorkload(t, Options{App: app, Variant: DSM1, Nodes: 8, DataMapping: true, Iterations: 2, Scale: 0.02})
		d2, _ := runWorkload(t, Options{App: app, Variant: DSM2, Nodes: 8, DataMapping: true, Iterations: 2, Scale: 0.02})
		p1 := float64(d1.Totals().PrivateMisses) / float64(d1.Totals().Misses)
		p2 := float64(d2.Totals().PrivateMisses) / float64(d2.Totals().Misses)
		if p2 <= p1 {
			t.Errorf("%v: dsm(2) private miss share %.2f <= dsm(1) %.2f", app, p2, p1)
		}
	}
}

func TestCGMappingDoesNotChangeStructure(t *testing.T) {
	// Paper: on CG, optimization and mapping barely move the miss
	// characteristics (the access pattern dominates).
	d1, _ := runWorkload(t, Options{App: CG, Variant: DSM1, Nodes: 8, DataMapping: true, Iterations: 2, Scale: 0.05})
	d2, _ := runWorkload(t, Options{App: CG, Variant: DSM2, Nodes: 8, DataMapping: true, Iterations: 2, Scale: 0.05})
	r1 := d1.Totals().MissRatio()
	r2 := d2.Totals().MissRatio()
	diff := r1 - r2
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.1*r1 {
		t.Errorf("CG dsm(1) miss ratio %.4f vs dsm(2) %.4f: structure changed", r1, r2)
	}
}

func TestCGRemoteMissesPerNodeRoughlyConstant(t *testing.T) {
	// The saturation mechanism: per-node remote misses stay roughly
	// constant as nodes grow (whole-vector re-fetch each iteration),
	// while per-node work shrinks.
	r8, _ := runWorkload(t, Options{App: CG, Variant: DSM2, Nodes: 8, DataMapping: true, Iterations: 3, Scale: 0.05})
	r32, _ := runWorkload(t, Options{App: CG, Variant: DSM2, Nodes: 32, DataMapping: true, Iterations: 3, Scale: 0.05})
	per8 := float64(r8.Totals().RemoteMisses) / 8
	per32 := float64(r32.Totals().RemoteMisses) / 32
	if per32 < per8*0.5 {
		t.Errorf("per-node remote misses fell too fast: %.0f at 8 nodes, %.0f at 32", per8, per32)
	}
	// Meanwhile per-node instructions must shrink ~4x.
	i8 := float64(r8.Totals().Instructions) / 8
	i32 := float64(r32.Totals().Instructions) / 32
	if i32 > i8/2 {
		t.Errorf("per-node work did not shrink: %.0f vs %.0f", i8, i32)
	}
}

func TestRewriteRatios(t *testing.T) {
	for _, app := range Apps() {
		d1 := RewriteRatio(app, DSM1, true)
		d2 := RewriteRatio(app, DSM2, true)
		mpi := RewriteRatio(app, MPI, false)
		if !(d1 < d2 && d2 < mpi) {
			t.Errorf("%v: ordering violated: dsm1=%.3f dsm2=%.3f mpi=%.3f", app, d1, d2, mpi)
		}
		if d2 >= mpi/2 {
			t.Errorf("%v: dsm(2) ratio %.3f not less than half of mpi %.3f", app, d2, mpi)
		}
		if RewriteRatio(app, Seq, false) != 0 {
			t.Errorf("%v: seq ratio nonzero", app)
		}
		// Mapping adds little.
		delta := RewriteRatio(app, DSM1, true) - RewriteRatio(app, DSM1, false)
		if delta <= 0 || delta > 0.03 {
			t.Errorf("%v: mapping delta %.3f out of range", app, delta)
		}
	}
}

func TestRewriteBreakdownNonEmpty(t *testing.T) {
	ts := RewriteBreakdown(BT, MPI, false)
	if len(ts) == 0 {
		t.Fatal("empty breakdown")
	}
	total := 0
	for _, tr := range ts {
		if tr.Lines <= 0 {
			t.Errorf("transform %q has %d lines", tr.Name, tr.Lines)
		}
		total += tr.Lines
	}
	if float64(total)/float64(seqLines[BT]) != RewriteRatio(BT, MPI, false) {
		t.Error("breakdown does not sum to ratio")
	}
}

func TestDeterministicBuild(t *testing.T) {
	opts := Options{App: SP, Variant: DSM1, Nodes: 4, DataMapping: true, Iterations: 1, Scale: 0.01}
	a, _ := runWorkload(t, opts)
	b, _ := runWorkload(t, opts)
	if a.Time != b.Time {
		t.Fatalf("nondeterministic: %v vs %v", a.Time, b.Time)
	}
}

func TestScaleGrowsWork(t *testing.T) {
	small, _ := runWorkload(t, Options{App: BT, Variant: DSM1, Nodes: 4, DataMapping: true, Iterations: 1, Scale: 0.01})
	big, _ := runWorkload(t, Options{App: BT, Variant: DSM1, Nodes: 4, DataMapping: true, Iterations: 1, Scale: 0.04})
	if big.Totals().Instructions <= small.Totals().Instructions*2 {
		t.Fatalf("scale 4x grew instructions only %d -> %d",
			small.Totals().Instructions, big.Totals().Instructions)
	}
}

func TestStringers(t *testing.T) {
	if BT.String() != "BT" || CG.String() != "CG" || FT.String() != "FT" || SP.String() != "SP" {
		t.Fatal("app names")
	}
	if Seq.String() != "seq" || MPI.String() != "mpi" || DSM1.String() != "dsm(1)" || DSM2.String() != "dsm(2)" {
		t.Fatal("variant names")
	}
}

func TestMPIVariantCommunicates(t *testing.T) {
	r, _ := runWorkload(t, Options{App: FT, Variant: MPI, Nodes: 8, Iterations: 1, Scale: 0.02})
	if r.MPI.Messages == 0 {
		t.Fatal("mpi variant sent no messages")
	}
	if r.Totals().RemoteMisses != 0 {
		t.Fatal("mpi variant generated coherence traffic")
	}
}

func BenchmarkBuildAndRunBT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := Build(Options{App: BT, Variant: DSM2, Nodes: 8, DataMapping: true, Iterations: 1, Scale: 0.02})
		if err != nil {
			b.Fatal(err)
		}
		m := machine.New(machine.Config{Nodes: 8, Multicast: true})
		m.Run(w.Progs)
	}
}

// BenchmarkProcessorStream times the processor front end on one node,
// in two forms, and reports host time per simulated memory access:
//   - rot: FT dsm(2)'s private passes (rotStream over the 4 MB private
//     buffer, 40 instructions per element and a store every other
//     element), so every access is a cache hit or a private miss and no
//     coherence transaction runs;
//   - paired: CG's mat-vec (pairedStream: the private a[j] plus a shared
//     vector homed at the node, 4 instructions per element), whose
//     shared misses run local coherence transactions.
func BenchmarkProcessorStream(b *testing.B) {
	const passes, elems = 4, 64 * 1024
	alloc := shmem.NewAllocator(1)
	y := alloc.Private("y", privBufElems)
	vec := alloc.Shared("p", 16*1024, shmem.MapNone)
	a := alloc.Private("a", elems)
	forms := []struct {
		name   string
		phases func() []phase
	}{
		{"rot", func() []phase {
			ph := make([]phase, passes)
			for s := range ph {
				ph[s] = rotStream(y, s, elems, 40, 2)
			}
			return ph
		}},
		{"paired", func() []phase { return []phase{pairedStream(vec, 0, passes*elems, a, 4)} }},
	}
	for _, f := range forms {
		b.Run(f.name, func(b *testing.B) {
			var accesses uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := machine.New(machine.Config{Nodes: 1})
				prog := &program{iters: 1, build: func(int) []phase { return f.phases() }}
				b.StartTimer()
				accesses += m.Run([]cpu.Program{prog}).PerNode[0].MemAccesses
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
		})
	}
}
