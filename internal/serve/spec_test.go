package serve

import (
	"reflect"
	"strings"
	"testing"
)

func validSpec() Spec {
	return Spec{App: "cg", Variant: "dsm2", Nodes: 16, Iterations: 1, Scale: 0.02, Seed: 1}
}

func TestNormalizeDefaults(t *testing.T) {
	n := Spec{App: "BT", Variant: "DSM(2)"}.Normalize()
	if n.App != "bt" || n.Variant != "dsm2" {
		t.Fatalf("names not canonicalized: %+v", n)
	}
	if n.Nodes != 16 || n.Iterations != 2 || n.Scale != 0.05 || n.Protocol != "queuing" {
		t.Fatalf("defaults not filled: %+v", n)
	}
	if seq := (Spec{App: "cg", Variant: "seq", Nodes: 64}).Normalize(); seq.Nodes != 1 {
		t.Fatalf("seq not forced to 1 node: %d", seq.Nodes)
	}
}

// TestNormalizeFaultCanonicalization: a preset name, its expanded k=v
// form, and the explicit "none" plan all fold to canonical spellings,
// so equivalent fault plans share one cache entry.
func TestNormalizeFaultCanonicalization(t *testing.T) {
	preset := Spec{App: "cg", Variant: "dsm2", Fault: "light-loss"}.Normalize()
	if preset.Fault == "" || preset.Fault == "light-loss" {
		t.Fatalf("preset not expanded to canonical k=v form: %q", preset.Fault)
	}
	kv := Spec{App: "cg", Variant: "dsm2", Fault: preset.Fault}.Normalize()
	if kv.Fault != preset.Fault {
		t.Fatalf("canonical form not a fixed point: %q vs %q", kv.Fault, preset.Fault)
	}
	if kv.Digest() != preset.Digest() {
		t.Fatal("preset and its canonical spelling digest differently")
	}
	if none := (Spec{App: "cg", Variant: "dsm2", Fault: "none"}).Normalize(); none.Fault != "" {
		t.Fatalf("explicit fault-free plan not folded to empty: %q", none.Fault)
	}
	if bad := (Spec{App: "cg", Variant: "dsm2", Fault: "frobnicate"}).Normalize(); bad.Fault != "frobnicate" {
		t.Fatalf("unparsable plan rewritten by Normalize: %q", bad.Fault)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		ok     bool
	}{
		{"valid", func(s *Spec) {}, true},
		{"nack protocol", func(s *Spec) { s.Protocol = "nack" }, true},
		{"explicit stages", func(s *Spec) { s.Stages = 4 }, true},
		{"unknown app", func(s *Spec) { s.App = "lu" }, false},
		{"unknown variant", func(s *Spec) { s.Variant = "omp" }, false},
		{"non-power-of-two nodes", func(s *Spec) { s.Nodes = 24 }, false},
		{"too many nodes", func(s *Spec) { s.Nodes = 2048 }, false},
		{"unknown protocol", func(s *Spec) { s.Protocol = "mesi" }, false},
		{"zero scale", func(s *Spec) { s.Scale = 0.00001 }, false},
		{"huge scale", func(s *Spec) { s.Scale = 9 }, false},
		{"iterations overflow", func(s *Spec) { s.Iterations = 1000 }, false},
		{"odd stages", func(s *Spec) { s.Stages = 3 }, false},
		{"seq with many nodes", func(s *Spec) { s.App = "cg"; s.Variant = "seq"; s.Nodes = 8 }, false},
		{"fault preset", func(s *Spec) { s.Fault = "light-loss" }, true},
		{"fault kv", func(s *Spec) { s.Fault = "drop=0.02,seed=7" }, true},
		{"unparsable fault", func(s *Spec) { s.Fault = "frobnicate" }, false},
		{"out-of-range fault", func(s *Spec) { s.Fault = "drop=2" }, false},
	}
	for _, tc := range cases {
		s := validSpec()
		s = s.Normalize()
		tc.mutate(&s)
		err := s.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

// TestDigestGoldenStability pins the canonical spec encoding. If this
// fails without a deliberate bump of specEncoding, the change would
// silently split the service's cache keyspace.
func TestDigestGoldenStability(t *testing.T) {
	const want = "1ff0e118ffce5101998a3acf63a3306844996259604944d29e84901f3022e097"
	if got := validSpec().Digest(); got != want {
		t.Fatalf("spec digest changed:\n got  %s\n want %s\n(if intentional, bump specEncoding and update this golden)", got, want)
	}
}

// TestDigestNormalizationInvariance: equivalent spellings of a spec
// share a digest — that is what makes the cache keyspace canonical.
func TestDigestNormalizationInvariance(t *testing.T) {
	a := Spec{App: "CG", Variant: "dsm(2)", Nodes: 16, Iterations: 1, Scale: 0.02, Seed: 1}
	b := Spec{App: "cg", Variant: "dsm2", Nodes: 16, Iterations: 1, Scale: 0.02, Seed: 1, Protocol: "queuing"}
	if a.Digest() != b.Digest() {
		t.Fatalf("equivalent specs digest differently:\n %s\n %s", a.Digest(), b.Digest())
	}
	c := Spec{App: "cg", Variant: "dsm2"} // all defaults
	d := Spec{App: "cg", Variant: "dsm2", Nodes: 16, Iterations: 2, Scale: 0.05}
	if c.Digest() != d.Digest() {
		t.Fatal("default-filled spec digests differently from explicit defaults")
	}
}

// TestDigestFieldSensitivity: every spec field that can change a
// simulation (or its payload) must perturb the digest; a field that
// silently fell out of the encoding would alias distinct experiments
// to one cache entry.
func TestDigestFieldSensitivity(t *testing.T) {
	base := validSpec().Digest()
	mutations := map[string]func(*Spec){
		"App":            func(s *Spec) { s.App = "ft" },
		"Variant":        func(s *Spec) { s.Variant = "dsm1" },
		"Nodes":          func(s *Spec) { s.Nodes = 32 },
		"NoMapping":      func(s *Spec) { s.NoMapping = true },
		"Iterations":     func(s *Spec) { s.Iterations = 2 },
		"Scale":          func(s *Spec) { s.Scale = 0.03 },
		"Seed":           func(s *Spec) { s.Seed = 2 },
		"Protocol":       func(s *Spec) { s.Protocol = "nack" },
		"Stages":         func(s *Spec) { s.Stages = 4 },
		"NoMulticast":    func(s *Spec) { s.NoMulticast = true },
		"UpdateProtocol": func(s *Spec) { s.UpdateProtocol = true },
		"TraceMax":       func(s *Spec) { s.TraceMax = 1000 },
		"Fault":          func(s *Spec) { s.Fault = "light-loss" },
	}
	for field, mutate := range mutations {
		s := validSpec()
		mutate(&s)
		if s.Digest() == base {
			t.Errorf("changing %s did not change the spec digest", field)
		}
	}
	if len(mutations) < numSpecFields(t) {
		t.Errorf("sensitivity table covers %d fields but Spec has %d — extend the table", len(mutations), numSpecFields(t))
	}
}

// numSpecFields counts Spec's fields so the sensitivity table cannot
// silently fall behind the struct.
func numSpecFields(t *testing.T) int {
	t.Helper()
	return reflect.TypeOf(Spec{}).NumField()
}

func TestLimitsCheck(t *testing.T) {
	s := validSpec().Normalize()
	if err := (Limits{MaxNodes: 16}).Check(s); err != nil {
		t.Fatalf("16 nodes rejected by a 16-node limit: %v", err)
	}
	err := (Limits{MaxNodes: 8}).Check(s)
	if err == nil || !strings.Contains(err.Error(), "over limit") {
		t.Fatalf("16 nodes passed an 8-node limit (err=%v)", err)
	}
	if err := (Limits{}).Check(s); err != nil {
		t.Fatalf("zero limits rejected a valid spec: %v", err)
	}
}
