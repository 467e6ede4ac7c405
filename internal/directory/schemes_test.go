package directory

import (
	"math/rand"
	"testing"

	"cenju4/internal/topology"
)

func allSchemes(total int) []NodeMap {
	return []NodeMap{
		NewCoarseVector(total, 32),
		NewHierarchicalBitmap(total, 6),
		NewPointerBitPattern(total),
	}
}

// Every scheme must represent a superset of the added sharers.
func TestSchemesSupersetInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		total := 1024
		for _, m := range allSchemes(total) {
			m.Clear()
			added := map[topology.NodeID]bool{}
			k := 1 + rng.Intn(64)
			for i := 0; i < k; i++ {
				n := topology.NodeID(rng.Intn(total))
				m.Add(n)
				added[n] = true
			}
			for n := range added {
				if !m.Contains(n) {
					t.Fatalf("%s lost sharer %d", m.Name(), n)
				}
			}
			if m.Count() < len(added) {
				t.Fatalf("%s Count() = %d < %d true sharers", m.Name(), m.Count(), len(added))
			}
			members := m.Members(nil)
			if len(members) != m.Count() {
				t.Fatalf("%s len(Members)=%d != Count=%d", m.Name(), len(members), m.Count())
			}
		}
	}
}

func TestCoarseVectorGrouping(t *testing.T) {
	m := NewCoarseVector(1024, 32) // 32 nodes per group
	m.Add(0)
	if m.Count() != 32 {
		t.Fatalf("one sharer represents %d nodes, want 32 (whole group)", m.Count())
	}
	if !m.Contains(31) {
		t.Error("group member 31 not represented")
	}
	if m.Contains(32) {
		t.Error("node 32 (next group) represented")
	}
	m.Add(5) // same group: no growth
	if m.Count() != 32 {
		t.Fatalf("same-group add grew count to %d", m.Count())
	}
	m.Add(100) // group 3
	if m.Count() != 64 {
		t.Fatalf("two groups represent %d, want 64", m.Count())
	}
}

func TestCoarseVectorSmallMachine(t *testing.T) {
	// 16 nodes with 32 bits: group size 1, fully precise.
	m := NewCoarseVector(16, 32)
	m.Add(3)
	m.Add(9)
	if m.Count() != 2 {
		t.Fatalf("Count() = %d, want 2 (precise at group size 1)", m.Count())
	}
}

func TestCoarseVectorBadWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0-bit coarse vector")
		}
	}()
	NewCoarseVector(1024, 0)
}

func TestHierarchicalBitmapSingleNode(t *testing.T) {
	m := NewHierarchicalBitmap(1024, 6)
	m.Add(164)
	if m.Count() != 1 {
		t.Fatalf("single sharer Count() = %d, want 1", m.Count())
	}
	if !m.Contains(164) || m.Contains(163) {
		t.Fatal("containment wrong for single sharer")
	}
	if m.Bits() != 24 {
		t.Fatalf("Bits() = %d, want 24", m.Bits())
	}
}

func TestHierarchicalBitmapCrossProduct(t *testing.T) {
	m := NewHierarchicalBitmap(1024, 6)
	// Two nodes differing in every level's branch: 0 (all digits 0) and
	// 1023 (all digits 3) => decoded set is the full cross product
	// {0,3}^5 at the 5 meaningful levels = 32 nodes (root level has one
	// branch since 10-bit numbers never set its high digit).
	m.Add(0)
	m.Add(1023)
	if got := m.Count(); got != 32 {
		t.Fatalf("Count() = %d, want 32", got)
	}
}

func TestHierarchicalBitmapClear(t *testing.T) {
	m := NewHierarchicalBitmap(1024, 6)
	m.Add(7)
	m.Clear()
	if m.Count() != 0 {
		t.Fatal("Clear left members")
	}
}

func TestHierarchicalBitmapBadLevelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0-level hierarchical bitmap")
		}
	}()
	NewHierarchicalBitmap(1024, 0)
}

func TestPointerBitPatternPrecisePhase(t *testing.T) {
	m := NewPointerBitPattern(1024)
	for i, n := range []topology.NodeID{9, 99, 999, 512} {
		m.Add(n)
		if !m.Precise() {
			t.Fatalf("imprecise at %d sharers", i+1)
		}
		if m.Count() != i+1 {
			t.Fatalf("Count() = %d at %d sharers", m.Count(), i+1)
		}
	}
	m.Add(4)
	if m.Precise() {
		t.Fatal("still precise at 5 sharers")
	}
}

// The paper's headline comparison: for sharers confined to a 128-node
// group, the bit-pattern scheme must be markedly more precise than both
// the coarse vector and the hierarchical bit-map.
func TestBitPatternBeatsOthersInGroup(t *testing.T) {
	cfg := PrecisionConfig{TotalNodes: 1024, GroupSize: 128, Trials: 60, Seed: 5}
	sharers := []int{8, 16, 32}
	results := map[string][]PrecisionPoint{}
	for _, s := range Schemes() {
		results[s.Name] = EvaluatePrecision(s, cfg, sharers)
	}
	bp := results["bit-pattern (42b)"]
	cv := results["coarse vector (32b)"]
	hb := results["hierarchical bit-map (24b)"]
	for i := range sharers {
		if bp[i].Represented >= cv[i].Represented {
			t.Errorf("sharers=%d: bit-pattern %.1f not better than coarse vector %.1f",
				sharers[i], bp[i].Represented, cv[i].Represented)
		}
		if bp[i].Represented >= hb[i].Represented {
			t.Errorf("sharers=%d: bit-pattern %.1f not better than hierarchical %.1f",
				sharers[i], bp[i].Represented, hb[i].Represented)
		}
	}
}

// Figure 4(a) shape: with few sharers drawn from the whole machine the
// bit-pattern is much more precise; with many sharers all schemes
// converge toward the machine size.
func TestPrecisionSweepShape(t *testing.T) {
	cfg := PrecisionConfig{TotalNodes: 1024, Trials: 40, Seed: 11}
	for _, s := range Schemes() {
		pts := EvaluatePrecision(s, cfg, []int{2, 1024})
		if pts[0].Represented < 2 {
			t.Errorf("%s: represented %.1f < 2 sharers", s.Name, pts[0].Represented)
		}
		if pts[1].Represented != 1024 {
			t.Errorf("%s: full sharing represented %.1f, want 1024", s.Name, pts[1].Represented)
		}
	}
	// Pointer phase: <= 4 sharers exactly represented by Cenju-4 scheme.
	cj := Schemes()[2]
	pts := EvaluatePrecision(cj, cfg, []int{1, 2, 3, 4})
	for _, p := range pts {
		if p.Represented != float64(p.Sharers) {
			t.Errorf("pointer phase: %d sharers represented as %.1f", p.Sharers, p.Represented)
		}
	}
}

func TestEvaluatePrecisionDeterministic(t *testing.T) {
	cfg := PrecisionConfig{TotalNodes: 1024, GroupSize: 128, Trials: 20, Seed: 3}
	s := Schemes()[0]
	a := EvaluatePrecision(s, cfg, []int{8, 16})
	b := EvaluatePrecision(s, cfg, []int{8, 16})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different results")
		}
	}
}

func TestEvaluatePrecisionSkipsOversizedCounts(t *testing.T) {
	cfg := PrecisionConfig{TotalNodes: 1024, GroupSize: 16, Trials: 5, Seed: 1}
	pts := EvaluatePrecision(Schemes()[0], cfg, []int{8, 64})
	if len(pts) != 1 || pts[0].Sharers != 8 {
		t.Fatalf("pts = %v, want only sharers=8", pts)
	}
}

func TestDefaultSharerCounts(t *testing.T) {
	counts := DefaultSharerCounts(128)
	if counts[0] != 1 {
		t.Fatal("must start at 1 sharer")
	}
	for _, k := range counts {
		if k > 128 {
			t.Fatalf("count %d exceeds cap", k)
		}
	}
	full := DefaultSharerCounts(1024)
	if full[len(full)-1] != 1024 {
		t.Fatal("full sweep must reach 1024")
	}
}

func TestOvershoot(t *testing.T) {
	p := PrecisionPoint{Sharers: 4, Represented: 8}
	if p.Overshoot() != 2 {
		t.Fatalf("Overshoot() = %v", p.Overshoot())
	}
	z := PrecisionPoint{}
	if z.Overshoot() != 1 {
		t.Fatalf("zero-sharers Overshoot() = %v", z.Overshoot())
	}
}

func TestTable1Rows(t *testing.T) {
	rows := Table1()
	if len(rows) != 6 {
		t.Fatalf("Table1 has %d rows, want 6", len(rows))
	}
	// The two access-scalable schemes are Origin and Cenju-4.
	scalable := 0
	for _, r := range rows {
		if r.AccessScale {
			scalable++
			if !r.HardwareScale {
				t.Errorf("%s: access-scalable but not hardware-scalable?", r.Scheme)
			}
		}
	}
	if scalable != 2 {
		t.Fatalf("%d access-scalable schemes, want 2", scalable)
	}
}

func BenchmarkBitPatternEncode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var p BitPattern
		p.Add(topology.NodeID(i % 1024))
		_ = p.Count()
	}
}

func BenchmarkEntryAddSwitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var e Entry
		for j := 0; j < 8; j++ {
			e.MapAdd(topology.NodeID((i + j*131) % 1024))
		}
	}
}
