package experiments

import (
	"context"
	"encoding/json"
	"testing"

	"cenju4/internal/faults"
	"cenju4/internal/machine"
	"cenju4/internal/npb"
	"cenju4/internal/serve"
	"cenju4/internal/spec"
)

// TestServeAndExperimentsRunTheSameMachine: one tuple posted to the
// serve layer and run by the experiment harness is one simulation —
// serve's result_digest equals machine.Digest of the harness's run.
// Each side builds its run description its own way (the wire form a
// client posts; appJob.spec from the harness config), so a field
// either side drops or defaults differently shows up here.
func TestServeAndExperimentsRunTheSameMachine(t *testing.T) {
	plan, err := faults.ParseSpec("light-loss")
	if err != nil {
		t.Fatal(err)
	}
	cg16 := appJob{npb.CG, npb.DSM2, 16, true}
	const size = `"iterations":1,"scale":0.02`
	for _, tc := range []struct {
		name  string
		wire  string
		job   appJob
		fault faults.Spec
		tweak func(*spec.Spec)
	}{
		{"cg dsm2 16 nodes", `{"app":"cg","variant":"dsm2","nodes":16,` + size + `}`, cg16, faults.Spec{}, nil},
		{"cg seq", `{"app":"cg","variant":"seq","no_mapping":true,` + size + `}`, appJob{npb.CG, npb.Seq, 1, false}, faults.Spec{}, nil},
		{"update protocol", `{"app":"cg","variant":"dsm2","nodes":16,"update_protocol":true,` + size + `}`,
			cg16, faults.Spec{}, func(s *spec.Spec) { s.UpdateProtocol = true }},
		{"nack 4 stages", `{"app":"cg","variant":"dsm2","nodes":16,"protocol":"nack","stages":4,` + size + `}`,
			cg16, faults.Spec{}, func(s *spec.Spec) { s.Protocol, s.Stages = "nack", 4 }},
		{"light-loss plan", `{"app":"cg","variant":"dsm2","nodes":16,"fault":"light-loss",` + size + `}`, cg16, plan, nil},
	} {
		cfg := Config{Scale: 0.02, Iterations: 1, Fault: tc.fault}
		s := tc.job.spec(cfg)
		if tc.tweak != nil {
			tc.tweak(&s)
		}
		want := machine.Digest(runOne(cfg, s, tc.name).result)

		var posted spec.Spec
		if err := json.Unmarshal([]byte(tc.wire), &posted); err != nil {
			t.Fatal(err)
		}
		posted = posted.Normalize()
		if err := posted.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		e, _, err := serve.Execute(context.Background(), posted.Digest(), posted, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var payload serve.Payload
		if err := json.Unmarshal(e.Body, &payload); err != nil {
			t.Fatal(err)
		}
		if got := payload.Result.ResultDigest; got != want {
			t.Errorf("%s: serve result_digest %s, experiments run %s", tc.name, got, want)
		}
	}
}

// TestFutureWorkRunsValidate: FutureWork's runs, the update-protocol
// ones included, go through runOne and so through machine.Validate; a
// coherence violation panics out of FutureWork.
func TestFutureWorkRunsValidate(t *testing.T) {
	r := FutureWork(Config{Scale: 0.02, Iterations: 1})
	if len(r.Points) != 3 {
		t.Fatalf("%d points", len(r.Points))
	}
}
