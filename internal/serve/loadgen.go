package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cenju4/internal/runner"
	"cenju4/internal/spec"
)

// LoadOptions configures a closed-loop load run against a serve
// instance. Each of Clients goroutines issues Requests/Clients POSTs
// back to back (or loops until Duration elapses when Duration > 0),
// then the generator GETs every digest it saw twice more and checks
// all three bodies for byte-identity.
type LoadOptions struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8944".
	BaseURL string
	// Clients is the closed-loop concurrency (default 8).
	Clients int
	// Requests is the total POST count across all clients (default
	// 64×Clients). Ignored when Duration is set.
	Requests int
	// Duration, when positive, runs each client until it elapses
	// instead of counting requests.
	Duration time.Duration
	// DupRatio in [0, 1] is the probability a request reuses one of the
	// shared base specs instead of a client-unique one; higher means
	// more cache hits (default 0.9).
	DupRatio float64
	// Seed makes the spec mix reproducible (default 1).
	Seed uint64
	// Spec is the base workload every generated spec varies from;
	// zero value means a small cg/dsm2 run.
	Spec spec.Spec
	// SharedSpecs is how many distinct "popular" specs the duplicate
	// traffic draws from (default 4).
	SharedSpecs int
	// MaxRetries is how many times a shed response (429 queue-full or
	// 503 unavailable) is retried before it is tallied. 0 disables
	// retries. Each retry backs off exponentially from RetryBackoff
	// with seeded jitter, and never shorter than the server's
	// Retry-After header.
	MaxRetries int
	// RetryBackoff is the base of the exponential retry backoff
	// (default 25ms).
	RetryBackoff time.Duration
	// Client overrides the HTTP client (tests inject the httptest
	// client; nil builds one sized for Clients connections).
	Client *http.Client
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Requests <= 0 {
		o.Requests = 64 * o.Clients
	}
	if o.DupRatio == 0 {
		o.DupRatio = 0.9
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SharedSpecs <= 0 {
		o.SharedSpecs = 4
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 25 * time.Millisecond
	}
	if o.Spec.App == "" {
		o.Spec = spec.Spec{App: "cg", Variant: "dsm2", Nodes: 8, Iterations: 1, Scale: 0.02}
	}
	if o.Client == nil {
		tr := &http.Transport{
			MaxIdleConns:        o.Clients + 8,
			MaxIdleConnsPerHost: o.Clients + 8,
		}
		o.Client = &http.Client{Transport: tr}
	}
	return o
}

// LoadReport is the outcome of a load run. The tallies cover all
// cache traffic the generator produced — the POST phase plus the
// reverification GETs; rejected (429) and failed requests are counted
// separately and do not enter the hit rate.
type LoadReport struct {
	Requests  int `json:"requests"`   // POSTs that got a response
	Hits      int `json:"hits"`       // X-Cenju4-Cache: hit
	Coalesced int `json:"coalesced"`  // X-Cenju4-Cache: coalesced
	Misses    int `json:"misses"`     // X-Cenju4-Cache: miss
	Rejected  int `json:"rejected"`   // 429 queue-full responses (after retries)
	Retries   int `json:"retries"`    // shed responses retried after backoff
	Errors    int `json:"errors"`     // transport errors / non-2xx non-429
	Digests   int `json:"digests"`    // distinct digests observed
	Reverify  int `json:"reverified"` // digests re-GET and compared
	Mismatch  int `json:"mismatched"` // re-GET bodies that differed

	Elapsed    time.Duration `json:"elapsed_ns"`
	Throughput float64       `json:"throughput_rps"`
	LatencyP50 time.Duration `json:"latency_p50_ns"`
	LatencyP95 time.Duration `json:"latency_p95_ns"`
	LatencyP99 time.Duration `json:"latency_p99_ns"`
	LatencyMax time.Duration `json:"latency_max_ns"`
}

// HitRate is hits+coalesced over all successful POSTs.
func (r LoadReport) HitRate() float64 {
	done := r.Hits + r.Coalesced + r.Misses
	if done == 0 {
		return 0
	}
	return float64(r.Hits+r.Coalesced) / float64(done)
}

// String renders the human-readable soak report.
func (r LoadReport) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "requests   %d in %v (%.1f req/s)\n", r.Requests, r.Elapsed.Round(time.Millisecond), r.Throughput)
	fmt.Fprintf(&b, "cache      %d hit / %d coalesced / %d miss  (hit rate %.1f%%)\n",
		r.Hits, r.Coalesced, r.Misses, 100*r.HitRate())
	fmt.Fprintf(&b, "shed       %d rejected (429), %d retried, %d errors\n", r.Rejected, r.Retries, r.Errors)
	fmt.Fprintf(&b, "identity   %d digests, %d reverified, %d mismatched\n", r.Digests, r.Reverify, r.Mismatch)
	fmt.Fprintf(&b, "latency    p50 %v  p95 %v  p99 %v  max %v\n",
		r.LatencyP50.Round(time.Microsecond), r.LatencyP95.Round(time.Microsecond),
		r.LatencyP99.Round(time.Microsecond), r.LatencyMax.Round(time.Microsecond))
	return b.String()
}

// loadClient is one closed-loop worker's private state; everything is
// merged on the coordinating goroutine after the WaitGroup, so workers
// share nothing while running.
type loadClient struct {
	rng       *rand.Rand
	jitter    *rand.Rand // backoff jitter; separate stream so retries never perturb the spec mix
	latencies []time.Duration
	report    LoadReport
	bodies    map[string][32]byte // digest -> sha256 of first-seen body
}

// RunLoad drives the service with Clients closed loops and returns the
// aggregate report. It is deterministic in its request *mix* (seeded
// per client via runner.DeriveSeed) though not in timing. Cancel ctx
// to stop early.
func RunLoad(ctx context.Context, opts LoadOptions) (LoadReport, error) {
	opts = opts.withDefaults()
	if opts.BaseURL == "" {
		return LoadReport{}, fmt.Errorf("serve: load: BaseURL is required")
	}

	// Popular specs: the duplicate share of the traffic draws from
	// these, so at DupRatio 0.9 each is requested many times and all but
	// the first are hits or coalesced.
	shared := make([]spec.Spec, opts.SharedSpecs)
	for i := range shared {
		s := opts.Spec
		s.Seed = int64(i + 1)
		shared[i] = s
	}

	start := time.Now()
	clients := make([]*loadClient, opts.Clients)
	var wg sync.WaitGroup
	for c := 0; c < opts.Clients; c++ {
		lc := &loadClient{
			rng:    rand.New(rand.NewSource(int64(runner.DeriveSeed(opts.Seed, c)))),
			jitter: rand.New(rand.NewSource(int64(runner.DeriveSeed(opts.Seed, 1<<20+c)))),
			bodies: make(map[string][32]byte),
		}
		clients[c] = lc
		perClient := opts.Requests / opts.Clients
		if c < opts.Requests%opts.Clients {
			perClient++
		}
		wg.Add(1)
		go func(c int, lc *loadClient, n int) {
			defer wg.Done()
			deadline := time.Time{}
			if opts.Duration > 0 {
				deadline = start.Add(opts.Duration)
			}
			for i := 0; ; i++ {
				if deadline.IsZero() {
					if i >= n {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}
				if ctx.Err() != nil {
					return
				}
				s := shared[lc.rng.Intn(len(shared))]
				if lc.rng.Float64() >= opts.DupRatio {
					// Unique spec: the seed field is part of the digest but
					// not the simulation, so distinct seeds are cache-cold
					// without costing distinct workloads.
					s.Seed = int64(1000 + c*1_000_000 + i)
				}
				lc.post(ctx, opts, s)
			}
		}(c, lc, perClient)
	}
	wg.Wait()

	// Merge private per-client state.
	total := LoadReport{}
	var lats []time.Duration
	bodies := make(map[string][32]byte)
	mismatch := 0
	for _, lc := range clients {
		total.Requests += lc.report.Requests
		total.Hits += lc.report.Hits
		total.Coalesced += lc.report.Coalesced
		total.Misses += lc.report.Misses
		total.Rejected += lc.report.Rejected
		total.Retries += lc.report.Retries
		total.Errors += lc.report.Errors
		total.Mismatch += lc.report.Mismatch
		lats = append(lats, lc.latencies...)
		for d, h := range lc.bodies {
			if prev, ok := bodies[d]; ok && prev != h {
				mismatch++
			}
			bodies[d] = h
		}
	}
	total.Mismatch += mismatch
	total.Digests = len(bodies)

	// Reverification pass: every digest observed during the run is
	// fetched twice more, and all three bodies (the POST's and both
	// GETs') must be byte-identical. These GETs are real cache traffic
	// and are tallied like any other request.
	for d, want := range bodies {
		var sums [][32]byte
		for i := 0; i < 2; i++ {
			t0 := time.Now()
			body, status, hdr, err := doGet(ctx, opts, "/v1/jobs/"+d)
			if err != nil {
				total.Errors++
				continue
			}
			lats = append(lats, time.Since(t0))
			total.Requests++
			if status != http.StatusOK {
				// Evicted (404) or still running (202): not an identity
				// violation, but not a hit either.
				total.Misses++
				continue
			}
			switch hdr.Get(HeaderCache) {
			case CacheHit:
				total.Hits++
			default:
				total.Errors++
			}
			sums = append(sums, sha256.Sum256(body))
		}
		if len(sums) == 0 {
			continue
		}
		total.Reverify++
		for _, s := range sums {
			if s != want {
				total.Mismatch++
				break
			}
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if n := len(lats); n > 0 {
		total.LatencyP50 = lats[n/2]
		total.LatencyP95 = lats[n*95/100]
		total.LatencyP99 = lats[n*99/100]
		total.LatencyMax = lats[n-1]
	}
	total.Elapsed = time.Since(start)
	if total.Elapsed > 0 {
		total.Throughput = float64(total.Requests) / total.Elapsed.Seconds()
	}
	return total, nil
}

// post issues one job submission, retrying shed responses up to
// MaxRetries times, and tallies the final outcome.
func (lc *loadClient) post(ctx context.Context, opts LoadOptions, s spec.Spec) {
	payload, err := json.Marshal(s)
	if err != nil {
		lc.report.Errors++
		return
	}
	var resp *http.Response
	var body []byte
	var readErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, opts.BaseURL+"/v1/jobs", bytes.NewReader(payload))
		if err != nil {
			lc.report.Errors++
			return
		}
		req.Header.Set("Content-Type", "application/json")
		t0 := time.Now()
		resp, err = opts.Client.Do(req)
		if err != nil {
			lc.report.Errors++
			return
		}
		body, readErr = io.ReadAll(resp.Body)
		resp.Body.Close()
		lc.latencies = append(lc.latencies, time.Since(t0))
		shed := resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable
		if !shed || attempt >= opts.MaxRetries {
			break
		}
		lc.report.Retries++
		if !sleepCtx(ctx, retryDelay(lc.jitter, attempt, resp.Header.Get("Retry-After"), opts.RetryBackoff)) {
			break // cancelled mid-backoff: tally the response we have
		}
	}
	lc.report.Requests++
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		lc.report.Rejected++
		return
	case resp.StatusCode != http.StatusOK || readErr != nil:
		lc.report.Errors++
		return
	}
	switch resp.Header.Get(HeaderCache) {
	case CacheHit:
		lc.report.Hits++
	case CacheCoalesced:
		lc.report.Coalesced++
	case CacheMiss:
		lc.report.Misses++
	default:
		lc.report.Errors++
		return
	}
	dig := resp.Header.Get(HeaderDigest)
	if dig == "" {
		lc.report.Errors++
		return
	}
	sum := sha256.Sum256(body)
	if prev, seen := lc.bodies[dig]; seen {
		if prev != sum {
			lc.report.Mismatch++
		}
	} else {
		lc.bodies[dig] = sum
	}
}

// retryDelay computes the backoff before the 0-based retry attempt:
// exponential from base (capped at 2s), never shorter than the
// server's Retry-After header, plus up to 50% seeded jitter so
// synchronized clients spread their retry storm.
func retryDelay(rng *rand.Rand, attempt int, retryAfter string, base time.Duration) time.Duration {
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	d := base << uint(min(attempt, 20))
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs > 0 {
		if ra := time.Duration(secs) * time.Second; ra > d {
			d = ra
		}
	}
	return d + time.Duration(rng.Int63n(int64(d)/2+1))
}

// sleepCtx sleeps for d unless ctx is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// doGet fetches a service path, returning body and status.
func doGet(ctx context.Context, opts LoadOptions, path string) ([]byte, int, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, opts.BaseURL+path, nil)
	if err != nil {
		return nil, 0, nil, err
	}
	resp, err := opts.Client.Do(req)
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, resp.Header, err
}
