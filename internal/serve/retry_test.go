package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cenju4/internal/machine"
	"cenju4/internal/metrics"
	"cenju4/internal/spec"
)

// TestRetryDelay pins the backoff policy: exponential from the base,
// capped, floored by the server's Retry-After header, with bounded
// jitter on top.
func TestRetryDelay(t *testing.T) {
	cases := []struct {
		name       string
		attempt    int
		retryAfter string
		base       time.Duration
		min, max   time.Duration
	}{
		{"first attempt", 0, "", 10 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond},
		{"third attempt doubles twice", 2, "", 10 * time.Millisecond, 40 * time.Millisecond, 60 * time.Millisecond},
		{"retry-after floors the delay", 0, "1", 10 * time.Millisecond, time.Second, 1500 * time.Millisecond},
		{"retry-after zero means base", 0, "0", 10 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond},
		{"garbage retry-after ignored", 0, "soon", 10 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond},
		{"exponent capped at 2s", 8, "", time.Second, 2 * time.Second, 3 * time.Second},
		{"zero base gets the default", 0, "", 0, 25 * time.Millisecond, 38 * time.Millisecond},
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range cases {
		for i := 0; i < 32; i++ { // jitter is random; bound it, don't pin it
			d := retryDelay(rng, tc.attempt, tc.retryAfter, tc.base)
			if d < tc.min || d > tc.max {
				t.Errorf("%s: delay %v outside [%v, %v]", tc.name, d, tc.min, tc.max)
				break
			}
		}
	}
}

// shedHandler is a scripted job API: the first len(sheds) POSTs are
// shed with the given statuses (each carrying Retry-After), later ones
// succeed; GETs always serve the cached body.
type shedHandler struct {
	mu    sync.Mutex
	sheds []int
	posts int
}

func (h *shedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		h.mu.Lock()
		i := h.posts
		h.posts++
		h.mu.Unlock()
		if i < len(h.sheds) {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(h.sheds[i])
			fmt.Fprintln(w, `{"error":"shed"}`)
			return
		}
		w.Header().Set(HeaderCache, CacheMiss)
		w.Header().Set(HeaderDigest, "d1")
		fmt.Fprintln(w, `{"ok":true}`)
		return
	}
	w.Header().Set(HeaderCache, CacheHit)
	w.Header().Set(HeaderDigest, "d1")
	fmt.Fprintln(w, `{"ok":true}`)
}

func (h *shedHandler) postCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.posts
}

// TestLoadRetriesShedResponses drives the load generator against a
// scripted server and checks the retry accounting: shed responses
// (429 and 503) are retried with backoff up to MaxRetries, successful
// retries do not count as rejections, and exhausted retries do.
func TestLoadRetriesShedResponses(t *testing.T) {
	cases := []struct {
		name       string
		sheds      []int
		maxRetries int

		wantPosts    int // HTTP POSTs the server saw
		wantRetries  int
		wantRejected int
		wantMisses   int
	}{
		{"429 then success", []int{http.StatusTooManyRequests}, 2, 2, 1, 0, 1},
		{"503 then success", []int{http.StatusServiceUnavailable}, 2, 2, 1, 0, 1},
		{"mixed shed then success", []int{http.StatusTooManyRequests, http.StatusServiceUnavailable}, 3, 3, 2, 0, 1},
		{"retries exhausted", []int{429, 429, 429, 429}, 2, 3, 2, 1, 0},
		{"retries disabled", []int{http.StatusTooManyRequests}, 0, 1, 0, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := &shedHandler{sheds: tc.sheds}
			ts := httptest.NewServer(h)
			defer ts.Close()

			rep, err := RunLoad(context.Background(), LoadOptions{
				BaseURL:      ts.URL,
				Clients:      1,
				Requests:     1,
				DupRatio:     1, // always the one shared spec: exactly one logical POST
				MaxRetries:   tc.maxRetries,
				RetryBackoff: time.Millisecond,
				Client:       ts.Client(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := h.postCount(); got != tc.wantPosts {
				t.Errorf("server saw %d POSTs, want %d", got, tc.wantPosts)
			}
			if rep.Retries != tc.wantRetries {
				t.Errorf("Retries = %d, want %d", rep.Retries, tc.wantRetries)
			}
			if rep.Rejected != tc.wantRejected {
				t.Errorf("Rejected = %d, want %d", rep.Rejected, tc.wantRejected)
			}
			if rep.Misses != tc.wantMisses {
				t.Errorf("Misses = %d, want %d", rep.Misses, tc.wantMisses)
			}
			if rep.Mismatch != 0 || rep.Errors != 0 {
				t.Errorf("unexpected mismatches/errors: %+v", rep)
			}
		})
	}
}

// TestJobAbortClassification: the three ways a job can die inside the
// runner — watchdog trip, event-budget overrun, wall-clock timeout —
// map to distinct statuses and X-Cenju4-Abort values, so a chaos
// client can tell a wedged protocol from an undersized budget.
func TestJobAbortClassification(t *testing.T) {
	exec := func(ctx context.Context, dig string, s spec.Spec) (*Entry, *metrics.Registry, error) {
		switch s.Seed {
		case 1:
			return nil, nil, &machine.DeadlockError{Unfinished: 3, Diagnosis: "node 0: mshr[0] wedged"}
		case 2:
			return nil, nil, fmt.Errorf("machine: run aborted: %w", machine.ErrEventBudget)
		case 3:
			return nil, nil, context.DeadlineExceeded
		}
		return nil, nil, errors.New("unclassified executor failure")
	}
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Exec: exec})

	cases := []struct {
		name   string
		seed   int
		status int
		abort  string
		errHas string
	}{
		{"watchdog", 1, http.StatusUnprocessableEntity, AbortWatchdog, "never finished"},
		{"budget", 2, http.StatusUnprocessableEntity, AbortBudget, "event budget"},
		{"timeout", 3, http.StatusGatewayTimeout, AbortTimeout, "timed out"},
		{"other", 4, http.StatusInternalServerError, "", "unclassified"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postSpec(t, ts, fmt.Sprintf(`{"app":"cg","variant":"dsm2","seed":%d}`, tc.seed))
			body := string(readAll(t, resp))
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d (body %s)", resp.StatusCode, tc.status, body)
			}
			if got := resp.Header.Get(HeaderAbort); got != tc.abort {
				t.Errorf("%s = %q, want %q", HeaderAbort, got, tc.abort)
			}
			if !strings.Contains(body, tc.errHas) {
				t.Errorf("body %q does not mention %q", body, tc.errHas)
			}
		})
	}
}

// TestShedResponsesCarryRetryAfter: every load-shedding status the
// service emits (shutdown 503s on submit and health) tells the client
// when to come back. The queue-full 429 path is asserted in
// TestQueueFullRejection.
func TestShedResponsesCarryRetryAfter(t *testing.T) {
	st := &stubExec{}
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Exec: st.exec})
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/healthz"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, r)
		if r.StatusCode != http.StatusServiceUnavailable || r.Header.Get("Retry-After") == "" {
			t.Errorf("GET %s: status %d Retry-After %q, want 503 with Retry-After", path, r.StatusCode, r.Header.Get("Retry-After"))
		}
	}
	resp := postSpec(t, ts, `{"app":"cg","variant":"dsm2"}`)
	readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("POST after Close: status %d Retry-After %q, want 503 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}
