package spec

import (
	"errors"
	"testing"

	"cenju4/internal/machine"
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

// TestValidateMachineErrors: sizes the machine cannot be built with
// come back as machine.Config.Validate's named errors, including a
// stage count the spec's own 2/4/6 rule allows but the node count
// does not (2 stages address only 16 nodes).
func TestValidateMachineErrors(t *testing.T) {
	s := validSpec().Normalize()
	s.Nodes = 24
	var badNodes *machine.InvalidNodeCountError
	if err := s.Validate(); !errors.As(err, &badNodes) {
		t.Errorf("24 nodes: got %v, want an InvalidNodeCountError", err)
	}
	s.Nodes, s.Stages = 1024, 2
	var badStages *machine.InvalidStageCountError
	if err := s.Validate(); !errors.As(err, &badStages) {
		t.Errorf("1024 nodes on 2 stages: got %v, want an InvalidStageCountError", err)
	}
}
