package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestServer wires a Server around a stub executor and returns it
// with its httptest frontend.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s, ts
}

func postSpec(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSubmitRejections drives the submit handler through every
// client-error path.
func TestSubmitRejections(t *testing.T) {
	st := &stubExec{}
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Limits: Limits{MaxNodes: 64}, Exec: st.exec})
	cases := []struct {
		name   string
		body   string
		status int
		errHas string
	}{
		{"empty body", "", http.StatusBadRequest, "malformed spec"},
		{"not json", "app=cg", http.StatusBadRequest, "malformed spec"},
		{"unknown field", `{"app":"cg","variant":"dsm2","frobnicate":1}`, http.StatusBadRequest, "malformed spec"},
		{"wrong type", `{"app":"cg","variant":"dsm2","nodes":"many"}`, http.StatusBadRequest, "malformed spec"},
		{"removed intra_parallel", `{"app":"cg","variant":"dsm2","intra_parallel":4}`, http.StatusBadRequest, "malformed spec"},
		{"unknown app", `{"app":"lu","variant":"dsm2"}`, http.StatusBadRequest, "unknown application"},
		{"unknown variant", `{"app":"cg","variant":"omp"}`, http.StatusBadRequest, "unknown variant"},
		{"bad node count", `{"app":"cg","variant":"dsm2","nodes":24}`, http.StatusBadRequest, "power of two"},
		{"bad protocol", `{"app":"cg","variant":"dsm2","protocol":"mesi"}`, http.StatusBadRequest, "unknown protocol"},
		{"over node limit", `{"app":"cg","variant":"dsm2","nodes":128}`, http.StatusUnprocessableEntity, "over limit"},
	}
	for _, tc := range cases {
		resp := postSpec(t, ts, tc.body)
		body := string(readAll(t, resp))
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, resp.StatusCode, tc.status, body)
			continue
		}
		if !strings.Contains(body, tc.errHas) {
			t.Errorf("%s: body %q does not mention %q", tc.name, body, tc.errHas)
		}
		var doc map[string]any
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Errorf("%s: error body is not JSON: %v", tc.name, err)
		}
	}
	if st.runs.Load() != 0 {
		t.Fatalf("rejected specs reached the executor %d times", st.runs.Load())
	}
}

// TestSubmitMissThenHit: the first POST pays for a run (miss), the
// second is served from the cache (hit), and both bodies are
// byte-identical.
func TestSubmitMissThenHit(t *testing.T) {
	st := &stubExec{}
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, Exec: st.exec})
	spec := `{"app":"cg","variant":"dsm2","nodes":16}`

	first := postSpec(t, ts, spec)
	firstBody := readAll(t, first)
	if first.StatusCode != http.StatusOK || first.Header.Get(HeaderCache) != CacheMiss {
		t.Fatalf("first POST: status %d cache %q", first.StatusCode, first.Header.Get(HeaderCache))
	}
	dig := first.Header.Get(HeaderDigest)
	if dig == "" {
		t.Fatal("no digest header on first response")
	}

	second := postSpec(t, ts, spec)
	secondBody := readAll(t, second)
	if second.Header.Get(HeaderCache) != CacheHit {
		t.Fatalf("second POST cache disposition %q, want hit", second.Header.Get(HeaderCache))
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatal("hit body differs from miss body")
	}
	if st.runs.Load() != 1 {
		t.Fatalf("executor ran %d times for one digest, want 1", st.runs.Load())
	}
}

// TestGetByDigest: repeated GETs return byte-identical bodies; unknown
// digests 404.
func TestGetByDigest(t *testing.T) {
	st := &stubExec{}
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, Exec: st.exec})
	resp := postSpec(t, ts, `{"app":"bt","variant":"mpi","nodes":4}`)
	want := readAll(t, resp)
	dig := resp.Header.Get(HeaderDigest)

	var bodies [][]byte
	for i := 0; i < 3; i++ {
		r, err := http.Get(ts.URL + "/v1/jobs/" + dig)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK || r.Header.Get(HeaderCache) != CacheHit {
			t.Fatalf("GET %d: status %d cache %q", i, r.StatusCode, r.Header.Get(HeaderCache))
		}
		bodies = append(bodies, readAll(t, r))
	}
	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Fatalf("GET %d body differs from POST body", i)
		}
	}

	r, err := http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, r); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown digest: status %d, want 404", r.StatusCode)
	}
}

// TestCoalescing: two clients posting the same digest while the run is
// in flight share one execution; one response is the miss, the other
// is coalesced, and the bodies are identical.
func TestCoalescing(t *testing.T) {
	st := &stubExec{gate: make(chan struct{})}
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, Exec: st.exec})
	spec := `{"app":"ft","variant":"dsm1","nodes":8}`

	type result struct {
		disposition string
		body        []byte
	}
	results := make([]result, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postSpec(t, ts, spec)
			results[i] = result{resp.Header.Get(HeaderCache), readAll(t, resp)}
		}(i)
	}
	// Both requests must be inside the server before the run finishes;
	// wait for the first to reach the executor, give the second a
	// moment to coalesce, then release.
	for st.runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(st.gate)
	wg.Wait()

	if !bytes.Equal(results[0].body, results[1].body) {
		t.Fatal("coalesced clients saw different bodies")
	}
	dispositions := []string{results[0].disposition, results[1].disposition}
	var miss, coalesced int
	for _, d := range dispositions {
		switch d {
		case CacheMiss:
			miss++
		case CacheCoalesced:
			coalesced++
		case CacheHit:
			// Legal rarity: the second POST arrived after completion.
		default:
			t.Fatalf("unexpected disposition %q", d)
		}
	}
	if st.runs.Load() != 1 {
		t.Fatalf("executor ran %d times, want 1 (dispositions %v)", st.runs.Load(), dispositions)
	}
	if miss != 1 || coalesced != 1 {
		t.Logf("dispositions %v (timing-dependent split, run count is the invariant)", dispositions)
	}
}

// TestQueueFullRejection: submissions beyond the admission queue get a
// distinct 429 with Retry-After, and the server keeps serving.
func TestQueueFullRejection(t *testing.T) {
	st := &stubExec{gate: make(chan struct{})}
	_, ts := newTestServer(t, Config{Workers: 1, BatchMax: 1, QueueDepth: 1, Exec: st.exec})

	// Distinct specs so nothing coalesces: the first occupies the
	// worker, the second sits in the queue, later ones must shed.
	const n = 6
	statuses := make([]int, n)
	var shedSeen atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postSpec(t, ts, fmt.Sprintf(`{"app":"cg","variant":"dsm2","nodes":16,"seed":%d}`, i+1))
			readAll(t, resp)
			statuses[i] = resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests {
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without a Retry-After header")
				}
				shedSeen.Add(1)
			}
		}(i)
	}
	// Hold the gate until at least one request has been shed (or we
	// give up), so the burst genuinely overflows the queue.
	deadline := time.Now().Add(5 * time.Second)
	for shedSeen.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(st.gate)
	wg.Wait()

	var ok, shed int
	for _, s := range statuses {
		switch s {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("unexpected status %d (all: %v)", s, statuses)
		}
	}
	if shed == 0 {
		t.Fatalf("no request was shed: %v", statuses)
	}
	if ok == 0 {
		t.Fatalf("no request succeeded: %v", statuses)
	}

	// The service recovers once the burst drains.
	resp := postSpec(t, ts, `{"app":"cg","variant":"dsm2","nodes":16,"seed":99}`)
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-burst POST: status %d", resp.StatusCode)
	}
}

// TestMetricsEndpoint: /v1/metrics is valid canonical metrics JSON and
// reflects cache traffic.
func TestMetricsEndpoint(t *testing.T) {
	st := &stubExec{}
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Exec: st.exec})
	readAll(t, postSpec(t, ts, `{"app":"cg","variant":"dsm2"}`))
	readAll(t, postSpec(t, ts, `{"app":"cg","variant":"dsm2"}`))

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	if doc.Counters["serve/cache/hits"] != 1 || doc.Counters["serve/cache/misses"] != 1 {
		t.Fatalf("cache counters = hits %d misses %d, want 1/1\n%s",
			doc.Counters["serve/cache/hits"], doc.Counters["serve/cache/misses"], body)
	}
	if doc.Counters["serve/pool/completed"] != 1 {
		t.Fatalf("completed = %d, want 1", doc.Counters["serve/pool/completed"])
	}
}

// TestHealthz: healthy until Close, 503 after.
func TestHealthz(t *testing.T) {
	st := &stubExec{}
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Exec: st.exec})
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, r); r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", r.StatusCode)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, r); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Close: %d, want 503", r.StatusCode)
	}
	resp := postSpec(t, ts, `{"app":"cg","variant":"dsm2"}`)
	if readAll(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST after Close: %d, want 503", resp.StatusCode)
	}
}

// TestMethodRouting: wrong methods are rejected by the mux.
func TestMethodRouting(t *testing.T) {
	st := &stubExec{}
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Exec: st.exec})
	r, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, r); r.StatusCode != http.StatusMethodNotAllowed && r.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/jobs: %d, want 405/404", r.StatusCode)
	}
}
