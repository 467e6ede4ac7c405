package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cenju4/internal/machine"
	"cenju4/internal/metrics"
)

// Cache-disposition values reported in the X-Cenju4-Cache response
// header; the load generator keys its hit-rate accounting on them.
const (
	// CacheHit: served straight from the result cache.
	CacheHit = "hit"
	// CacheCoalesced: attached to an identical in-flight run.
	CacheCoalesced = "coalesced"
	// CacheMiss: this request paid for a simulation.
	CacheMiss = "miss"
)

// Header names of the job API.
const (
	HeaderCache  = "X-Cenju4-Cache"
	HeaderDigest = "X-Cenju4-Digest"
	// HeaderAbort classifies why a job died: "watchdog" (the machine
	// went quiescent with unfinished programs — an unrecoverable fault
	// plan wedged the protocol), "budget" (event-budget overrun, e.g. a
	// nack-mode livelock), or "timeout" (wall-clock deadline).
	HeaderAbort = "X-Cenju4-Abort"
)

// HeaderAbort values.
const (
	AbortWatchdog = "watchdog"
	AbortBudget   = "budget"
	AbortTimeout  = "timeout"
)

// maxSpecBytes bounds a POST body; a job spec is a few hundred bytes,
// so anything beyond this is malformed or hostile.
const maxSpecBytes = 1 << 16

// Config parameterizes a Server.
type Config struct {
	// Workers, QueueDepth, BatchMax, JobTimeout forward to PoolConfig.
	Workers    int
	QueueDepth int
	BatchMax   int
	JobTimeout time.Duration
	// CacheBytes bounds the result cache (default 64 MiB).
	CacheBytes int64
	// Limits are the per-job resource ceilings.
	Limits Limits
	// Exec overrides the job executor (tests stub it; nil = Execute).
	Exec Exec
}

// Server is the experiment service: digest → cache → pool → runner,
// fronted by an HTTP mux. Create with New, serve Handler, stop with
// Close.
type Server struct {
	cfg   Config
	cache *Cache
	pool  *Pool

	closed atomic.Bool

	// sim accumulates every finished run's simulation registry, merged
	// on the dispatcher goroutine in batch order.
	simMu sync.Mutex
	sim   *metrics.Registry

	requests atomic.Uint64
}

// New assembles a server.
func New(cfg Config) *Server {
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	s := &Server{
		cfg:   cfg,
		cache: NewCache(cfg.CacheBytes),
		sim:   metrics.New(),
	}
	exec := cfg.Exec
	if exec == nil {
		exec = func(ctx context.Context, dig string, spec Spec) (*Entry, *metrics.Registry, error) {
			return Execute(ctx, dig, spec, cfg.Limits.MaxEvents)
		}
	}
	s.pool = NewPool(PoolConfig{
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		BatchMax:   cfg.BatchMax,
		JobTimeout: cfg.JobTimeout,
		Exec:       exec,
		Done:       s.jobDone,
	})
	return s
}

// jobDone runs on the dispatcher for every finished job, in batch
// order: populate the cache and fold the run's simulation metrics into
// the server-lifetime registry.
func (s *Server) jobDone(j *Job) {
	if j.err != nil {
		return
	}
	s.cache.Put(j.entry)
	if j.reg != nil {
		s.simMu.Lock()
		s.sim.Merge(j.reg)
		s.simMu.Unlock()
	}
}

// Close drains the pool (bounded by ctx) and marks the server
// unhealthy. In-flight HTTP waiters are released as their jobs finish.
func (s *Server) Close(ctx context.Context) error {
	s.closed.Store(true)
	return s.pool.Close(ctx)
}

// Handler returns the service mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{digest}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{digest}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// errorBody writes a JSON error document with the given status.
func errorBody(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	msg, _ := json.Marshal(fmt.Sprintf(format, args...))
	fmt.Fprintf(w, "{\"error\": %s}\n", msg)
}

// writeEntry serves a cached (or just-computed) payload verbatim.
// Entries are immutable, so every response for a digest is
// byte-identical.
func writeEntry(w http.ResponseWriter, e *Entry, disposition string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderCache, disposition)
	w.Header().Set(HeaderDigest, e.Digest)
	w.Write(e.Body)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		errorBody(w, http.StatusBadRequest, "malformed spec: %v", err)
		return
	}
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		errorBody(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.cfg.Limits.Check(spec); err != nil {
		errorBody(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	dig := spec.Digest()
	if e, ok := s.cache.Get(dig); ok {
		writeEntry(w, e, CacheHit)
		return
	}
	job, coalesced, err := s.pool.Submit(dig, spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		errorBody(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrShuttingDown):
		w.Header().Set("Retry-After", "1")
		errorBody(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		errorBody(w, http.StatusInternalServerError, "%v", err)
		return
	}
	entry, err := job.Wait(r.Context())
	if err != nil {
		s.writeJobError(w, r, err)
		return
	}
	disposition := CacheMiss
	if coalesced {
		disposition = CacheCoalesced
	}
	writeEntry(w, entry, disposition)
}

// writeJobError maps a job failure to a status. Aborted simulations
// are the spec's fault (422) and carry an X-Cenju4-Abort header naming
// the mechanism that caught them — a watchdog trip (unrecoverable
// fault plan) is a different diagnosis from an event-budget overrun
// (livelock or runaway job); deadlines are a gateway timeout (504),
// shutdown is 503 with Retry-After, the rest are 500s.
func (s *Server) writeJobError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case r.Context().Err() != nil:
		// The client went away; nobody is reading this response.
		errorBody(w, http.StatusRequestTimeout, "client cancelled: %v", r.Context().Err())
	case errors.Is(err, machine.ErrDeadlock):
		w.Header().Set(HeaderAbort, AbortWatchdog)
		errorBody(w, http.StatusUnprocessableEntity, "watchdog abort: %v", err)
	case errors.Is(err, machine.ErrEventBudget):
		w.Header().Set(HeaderAbort, AbortBudget)
		errorBody(w, http.StatusUnprocessableEntity, "over limit: %v", err)
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set(HeaderAbort, AbortTimeout)
		errorBody(w, http.StatusGatewayTimeout, "job timed out: %v", err)
	case errors.Is(err, ErrShuttingDown), errors.Is(err, context.Canceled):
		w.Header().Set("Retry-After", "1")
		errorBody(w, http.StatusServiceUnavailable, "%v", ErrShuttingDown)
	default:
		errorBody(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	dig := r.PathValue("digest")
	if e, ok := s.cache.Get(dig); ok {
		writeEntry(w, e, CacheHit)
		return
	}
	if s.pool.Running(dig) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, "{\"digest\": %q, \"status\": \"running\"}\n", dig)
		return
	}
	errorBody(w, http.StatusNotFound, "no result for digest %s", dig)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	dig := r.PathValue("digest")
	e, ok := s.cache.Get(dig)
	if !ok {
		errorBody(w, http.StatusNotFound, "no result for digest %s", dig)
		return
	}
	if len(e.Trace) == 0 {
		errorBody(w, http.StatusNotFound, "spec %s did not request tracing (set trace_max)", dig)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderDigest, e.Digest)
	w.Write(e.Trace)
}

// handleMetrics serves the service registry: serve-layer counters
// (cache, pool, http) plus every finished run's simulation metrics
// merged in completion order, in the canonical metrics JSON format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := metrics.New()
	cs := s.cache.Stats()
	reg.Counter("serve/cache/hits").Add(cs.Hits)
	reg.Counter("serve/cache/misses").Add(cs.Misses)
	reg.Counter("serve/cache/evictions").Add(cs.Evictions)
	reg.Gauge("serve/cache/entries").Peak(int64(cs.Entries))
	reg.Gauge("serve/cache/bytes").Peak(cs.Bytes)
	ps := s.pool.Stats()
	reg.Counter("serve/pool/submitted").Add(ps.Submitted)
	reg.Counter("serve/pool/coalesced").Add(ps.Coalesced)
	reg.Counter("serve/pool/rejected").Add(ps.Rejected)
	reg.Counter("serve/pool/completed").Add(ps.Completed)
	reg.Counter("serve/pool/failed").Add(ps.Failed)
	reg.Counter("serve/pool/batches").Add(ps.Batches)
	reg.Gauge("serve/pool/inflight").Peak(int64(ps.Inflight))
	reg.Counter("serve/http/requests").Add(s.requests.Load())
	s.simMu.Lock()
	reg.Merge(s.sim)
	s.simMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if err := reg.WriteJSON(w); err != nil {
		// Headers are gone; nothing better to do than note it.
		return
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		w.Header().Set("Retry-After", "1")
		errorBody(w, http.StatusServiceUnavailable, "%v", ErrShuttingDown)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}
