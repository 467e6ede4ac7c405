package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"cenju4/internal/machine"
)

func runSpec(t *testing.T) Spec {
	t.Helper()
	s := Spec{App: "cg", Variant: "dsm2", Nodes: 8, Iterations: 1, Scale: 0.02, Seed: 7}.Normalize()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestExecuteDeterministic: the same spec executed twice renders
// byte-identical payloads — the property that makes digests cache keys.
func TestExecuteDeterministic(t *testing.T) {
	spec := runSpec(t)
	dig := spec.Digest()
	a, _, err := Execute(context.Background(), dig, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Execute(context.Background(), dig, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Body, b.Body) {
		t.Fatal("two executions of one spec rendered different payloads")
	}

	var doc Payload
	if err := json.Unmarshal(a.Body, &doc); err != nil {
		t.Fatalf("payload is not valid JSON: %v", err)
	}
	if doc.Digest != dig {
		t.Fatalf("payload digest %s, want %s", doc.Digest, dig)
	}
	if doc.Result.Events == 0 || doc.Result.TimeNs == 0 {
		t.Fatalf("payload result looks empty: %+v", doc.Result)
	}
	if doc.Result.ResultDigest == "" {
		t.Fatal("payload missing the machine result digest")
	}
	if len(doc.Metrics) == 0 {
		t.Fatal("payload missing embedded metrics JSON")
	}
}

// TestExecuteTrace: trace_max > 0 yields a Chrome-trace payload;
// omitting it yields none, and tracing does not perturb the simulation
// result.
func TestExecuteTrace(t *testing.T) {
	plain := runSpec(t)
	traced := plain
	traced.TraceMax = 4096

	pe, _, err := Execute(context.Background(), plain.Digest(), plain, 0)
	if err != nil {
		t.Fatal(err)
	}
	te, _, err := Execute(context.Background(), traced.Digest(), traced, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pe.Trace) != 0 {
		t.Fatal("untraced spec produced trace bytes")
	}
	if len(te.Trace) == 0 {
		t.Fatal("traced spec produced no trace bytes")
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(te.Trace, &chrome); err != nil {
		t.Fatalf("trace is not Chrome-trace JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	var pd, td Payload
	if err := json.Unmarshal(pe.Body, &pd); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(te.Body, &td); err != nil {
		t.Fatal(err)
	}
	if pd.Result.ResultDigest != td.Result.ResultDigest {
		t.Fatal("tracing perturbed the simulation result digest")
	}
}

// TestExecuteEventBudget: a tiny event budget aborts the run with
// machine.ErrEventBudget rather than returning a partial result.
func TestExecuteEventBudget(t *testing.T) {
	spec := runSpec(t)
	e, _, err := Execute(context.Background(), spec.Digest(), spec, 100)
	if !errors.Is(err, machine.ErrEventBudget) {
		t.Fatalf("err = %v, want ErrEventBudget", err)
	}
	if e != nil {
		t.Fatal("budget-aborted run returned an entry")
	}
}

// TestExecuteCancelled: a pre-cancelled context aborts immediately.
func TestExecuteCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := runSpec(t)
	if _, _, err := Execute(ctx, spec.Digest(), spec, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExecuteRecoverableFault: a lossy fault plan threads all the way
// into the machine — the run still completes (recovery masks the
// losses), its payload is deterministic, and the injector's ledger
// shows up in the embedded metrics.
func TestExecuteRecoverableFault(t *testing.T) {
	spec := runSpec(t)
	spec.Fault = "light-loss"
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	dig := spec.Digest()
	a, _, err := Execute(context.Background(), dig, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Execute(context.Background(), dig, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Body, b.Body) {
		t.Fatal("faulty executions of one spec rendered different payloads")
	}
	if !bytes.Contains(a.Body, []byte("faults/candidates")) {
		t.Fatal("payload metrics missing the fault injector's ledger")
	}

	clean := runSpec(t)
	ce, _, err := Execute(context.Background(), clean.Digest(), clean, 0)
	if err != nil {
		t.Fatal(err)
	}
	var cd, fd Payload
	if err := json.Unmarshal(ce.Body, &cd); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(a.Body, &fd); err != nil {
		t.Fatal(err)
	}
	if cd.Result.ResultDigest == fd.Result.ResultDigest {
		t.Fatal("fault plan did not perturb the simulation (injector not threaded?)")
	}
}

// TestExecuteUnrecoverableFaultTripsWatchdog: a plan that wedges the
// protocol surfaces as machine.ErrDeadlock — never a hang, never a
// partial payload — which the HTTP layer classifies as a watchdog
// abort (TestJobAbortClassification).
func TestExecuteUnrecoverableFaultTripsWatchdog(t *testing.T) {
	spec := runSpec(t)
	// Unmapped shared data keeps dirty blocks remote from their homes,
	// so the workload genuinely depends on the forward leg this plan
	// severs; the mapped variant never needs one.
	spec.NoMapping = true
	spec.Fault = "drop=1,scope=forwards,timeout=20000,retries=2"
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	e, _, err := Execute(context.Background(), spec.Digest(), spec, 0)
	if !errors.Is(err, machine.ErrDeadlock) {
		t.Fatalf("err = %v, want machine.ErrDeadlock", err)
	}
	if e != nil {
		t.Fatal("watchdog-aborted run returned an entry")
	}
	var de *machine.DeadlockError
	if !errors.As(err, &de) || de.Diagnosis == "" {
		t.Fatalf("watchdog abort carries no diagnosis: %v", err)
	}
}

// TestServerRealExecutor: the whole stack with no stub — POST runs a
// real simulation, the repeat is a byte-identical cache hit, and the
// trace endpoint serves the Chrome payload.
func TestServerRealExecutor(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	spec := `{"app":"cg","variant":"dsm2","nodes":8,"iterations":1,"scale":0.02,"trace_max":2048}`

	first := postSpec(t, ts, spec)
	firstBody := readAll(t, first)
	if first.StatusCode != 200 {
		t.Fatalf("POST: %d %s", first.StatusCode, firstBody)
	}
	second := postSpec(t, ts, spec)
	secondBody := readAll(t, second)
	if second.Header.Get(HeaderCache) != CacheHit {
		t.Fatalf("repeat disposition %q", second.Header.Get(HeaderCache))
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatal("repeat POST body differs")
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + first.Header.Get(HeaderDigest) + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tr := readAll(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("trace GET: %d %s", resp.StatusCode, tr)
	}
	if !bytes.Contains(tr, []byte("traceEvents")) {
		t.Fatal("trace endpoint did not serve Chrome-trace JSON")
	}
}
