package faults

import (
	"strings"
	"testing"

	"cenju4/internal/metrics"
	"cenju4/internal/msg"
	"cenju4/internal/sim"
	"cenju4/internal/topology"
)

func TestSpecStringParseRoundTrip(t *testing.T) {
	specs := []Spec{
		{},
		{Seed: 7, Drop: 0.25},
		{Seed: 1, Dup: 0.125, Delay: 0.5, DelayBy: 300, From: 10, Until: 90},
		{Seed: 3, Corrupt: 0.01, Scope: ScopeAll, MaxFaults: 12},
		{Seed: 9, StallEvery: 16, StallFor: 450, Timeout: 1000, Retries: 2},
		{Seed: 2, Drop: 0.1, Scope: ScopeForwards, ModuleBuf: 1},
	}
	for _, s := range specs {
		s = s.Normalize()
		text := s.String()
		back, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		if back != s {
			t.Errorf("round trip of %q: got %+v want %+v", text, back, s)
		}
	}
}

func TestParseSpecPresetsAndErrors(t *testing.T) {
	for _, p := range Presets() {
		s, err := ParseSpec(p.Name)
		if err != nil {
			t.Fatalf("preset %q: %v", p.Name, err)
		}
		if !s.Injecting() {
			t.Errorf("preset %q injects nothing", p.Name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", p.Name, err)
		}
		if p.Name != "drop-forwards" && s.Scope != ScopeRequestReply {
			t.Errorf("preset %q is not recoverable scope", p.Name)
		}
	}
	if s, err := ParseSpec("none"); err != nil || s.Enabled() {
		t.Errorf("ParseSpec(none) = %+v, %v", s, err)
	}
	for _, bad := range []string{
		"bogus-preset", "drop", "drop=x", "drop=1.5", "drop=0.9,dup=0.9",
		"from=9,until=3", "k=1", "drop=NaN",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestNormalizeArmsRecovery(t *testing.T) {
	s := Spec{Drop: 0.1}.Normalize()
	if s.Seed == 0 || s.Timeout != DefaultTimeout || s.Retries != DefaultRetries {
		t.Fatalf("normalize left recovery unarmed: %+v", s)
	}
	if !s.Recovering() {
		t.Fatal("Recovering() false after Normalize of injecting plan")
	}
	z := Spec{}.Normalize()
	if z.Enabled() {
		t.Fatalf("zero spec enabled after Normalize: %+v", z)
	}
}

// drive feeds n uniform deliveries through the injector and returns a
// compact schedule fingerprint (action and time per delivery).
func drive(in *Injector, n int) []uint64 {
	var sched []uint64
	for i := 0; i < n; i++ {
		src := topology.NodeID(i % 4)
		dst := topology.NodeID((i + 1) % 4)
		act, at := in.Arrival(msg.ReadShared, src, dst, false, sim.Time(i*100))
		sched = append(sched, uint64(act)<<62|uint64(at))
	}
	return sched
}

func TestInjectorDeterministicAndSeedSensitive(t *testing.T) {
	spec := Spec{Seed: 42, Drop: 0.1, Dup: 0.1, Delay: 0.2, DelayBy: 1000, Corrupt: 0.1}
	a := drive(spec.Compile(4), 500)
	b := drive(spec.Compile(4), 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same (seed, plan) diverged at delivery %d", i)
		}
	}
	spec.Seed = 43
	c := drive(spec.Compile(4), 500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault schedules (placebo injector)")
	}
}

func TestInjectorPairOrderingFloor(t *testing.T) {
	in := Spec{Seed: 5, Delay: 1, DelayBy: 10_000}.Compile(2)
	var last sim.Time
	for i := 0; i < 200; i++ {
		_, at := in.Arrival(msg.HomeData, 0, 1, false, sim.Time(i))
		if at < last {
			t.Fatalf("delivery %d scheduled at %d before previous %d on same pair", i, at, last)
		}
		last = at
	}
	if in.Stats.Delays == 0 {
		t.Fatal("delay plan injected no delays")
	}
}

func TestInjectorScopeWindowBudgetAndGatherExemption(t *testing.T) {
	in := Spec{Seed: 1, Drop: 1, From: 100, Until: 200, MaxFaults: 3}.Compile(2)
	if act, _ := in.Arrival(msg.ReadShared, 0, 1, false, 50); act != Pass {
		t.Fatal("faulted outside window")
	}
	if act, _ := in.Arrival(msg.WriteBack, 0, 1, false, 150); act != Pass {
		t.Fatal("faulted WriteBack in request-reply scope")
	}
	if act, _ := in.Arrival(msg.FwdReadShared, 0, 1, false, 150); act != Pass {
		t.Fatal("faulted a forward in request-reply scope")
	}
	if act, _ := in.Arrival(msg.InvAck, 0, 1, true, 150); act != Pass {
		t.Fatal("faulted a gather-carrying delivery")
	}
	drops := 0
	for i := 0; i < 10; i++ {
		if act, _ := in.Arrival(msg.ReadShared, 0, 1, false, 150); act == DropMsg {
			drops++
		}
	}
	if drops != 3 {
		t.Fatalf("MaxFaults=3 but injected %d drops", drops)
	}
	if in.Injected() != 3 {
		t.Fatalf("Injected() = %d, want 3", in.Injected())
	}
}

func TestInjectorStallCadence(t *testing.T) {
	in := Spec{Seed: 1, StallEvery: 4, StallFor: 99}.Compile(2)
	var stalls int
	for i := 0; i < 16; i++ {
		if d := in.Stall(10); d != 0 {
			if d != 99 {
				t.Fatalf("stall duration %d, want 99", d)
			}
			stalls++
		}
	}
	if stalls != 4 {
		t.Fatalf("16 traversals at StallEvery=4 gave %d stalls", stalls)
	}
}

func TestScopeParseAndCoverage(t *testing.T) {
	for s := ScopeRequestReply; s <= ScopeAll; s++ {
		back, err := ParseScope(s.String())
		if err != nil || back != s {
			t.Errorf("scope %v round trip: %v, %v", s, back, err)
		}
	}
	if _, err := ParseScope("nope"); err == nil {
		t.Error("ParseScope accepted junk")
	}
	// Every kind except WriteBack must be faultable in exactly the
	// scopes that claim it, and WriteBack in none.
	all := Spec{Scope: ScopeAll}.cover()
	for k := msg.ReadShared; int(k) < msg.NumKinds; k++ {
		want := k != msg.WriteBack
		if all[k] != want {
			t.Errorf("ScopeAll covers %v = %v, want %v", k, all[k], want)
		}
	}
}

// cover reports, per kind, whether the spec's scope includes it.
func (s Spec) cover() map[msg.Kind]bool {
	in := Injector{spec: s}
	m := make(map[msg.Kind]bool)
	for k := msg.Kind(0); int(k) < msg.NumKinds; k++ {
		m[k] = in.inScope(k)
	}
	return m
}

func TestMetricsInto(t *testing.T) {
	in := Spec{Seed: 3, Drop: 0.5}.Compile(2)
	for i := 0; i < 50; i++ {
		in.Arrival(msg.ReadShared, 0, 1, false, sim.Time(i))
	}
	in.NoteDetectedDrop()
	reg := metrics.New()
	in.MetricsInto(reg)
	rep := reg.Report()
	for _, want := range []string{"faults/candidates", "faults/drops", "faults/detected-drops"} {
		if !strings.Contains(rep, want) {
			t.Errorf("metrics report missing %s:\n%s", want, rep)
		}
	}
	if reg.Counter("faults/candidates").Value() != 50 {
		t.Errorf("candidates = %d, want 50", reg.Counter("faults/candidates").Value())
	}
	if reg.Counter("faults/drops").Value() == 0 {
		t.Error("drop plan recorded zero drops")
	}
}
