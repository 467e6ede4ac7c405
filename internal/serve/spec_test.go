package serve

import (
	"reflect"
	"strings"
	"testing"

	"cenju4/internal/spec"
)

func validSpec() spec.Spec {
	return spec.Spec{App: "cg", Variant: "dsm2", Nodes: 16, Iterations: 1, Scale: 0.02, Seed: 1}
}

// TestDigestGoldenStability pins the canonical spec encoding. If this
// fails without a deliberate bump of spec.specEncoding, the change would
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
	a := spec.Spec{App: "CG", Variant: "dsm(2)", Nodes: 16, Iterations: 1, Scale: 0.02, Seed: 1}
	b := spec.Spec{App: "cg", Variant: "dsm2", Nodes: 16, Iterations: 1, Scale: 0.02, Seed: 1, Protocol: "queuing"}
	if a.Digest() != b.Digest() {
		t.Fatalf("equivalent specs digest differently:\n %s\n %s", a.Digest(), b.Digest())
	}
	c := spec.Spec{App: "cg", Variant: "dsm2"} // all defaults
	d := spec.Spec{App: "cg", Variant: "dsm2", Nodes: 16, Iterations: 2, Scale: 0.05}
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
	mutations := map[string]func(*spec.Spec){
		"App":            func(s *spec.Spec) { s.App = "ft" },
		"Variant":        func(s *spec.Spec) { s.Variant = "dsm1" },
		"Nodes":          func(s *spec.Spec) { s.Nodes = 32 },
		"NoMapping":      func(s *spec.Spec) { s.NoMapping = true },
		"Iterations":     func(s *spec.Spec) { s.Iterations = 2 },
		"Scale":          func(s *spec.Spec) { s.Scale = 0.03 },
		"Seed":           func(s *spec.Spec) { s.Seed = 2 },
		"Protocol":       func(s *spec.Spec) { s.Protocol = "nack" },
		"Stages":         func(s *spec.Spec) { s.Stages = 4 },
		"NoMulticast":    func(s *spec.Spec) { s.NoMulticast = true },
		"UpdateProtocol": func(s *spec.Spec) { s.UpdateProtocol = true },
		"TraceMax":       func(s *spec.Spec) { s.TraceMax = 1000 },
		"Fault":          func(s *spec.Spec) { s.Fault = "light-loss" },
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
	return reflect.TypeOf(spec.Spec{}).NumField()
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
