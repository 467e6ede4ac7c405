package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cenju4/internal/metrics"
	"cenju4/internal/runner"
	"cenju4/internal/spec"
)

// Admission and lifecycle errors. The HTTP layer maps ErrQueueFull to
// a 429 (the load-shedding contract: a full service rejects fast with
// a distinct status instead of queuing unboundedly) and ErrShuttingDown
// to a 503.
var (
	ErrQueueFull    = errors.New("serve: job queue full")
	ErrShuttingDown = errors.New("serve: shutting down")
)

// Exec runs one job and renders its cacheable entry. The context
// carries the job's wall-clock deadline and the pool's shutdown
// signal; implementations must abort promptly when it is cancelled
// (Execute threads it into the simulation loop via machine.RunContext).
// The returned registry holds the run's simulation metrics (may be
// nil).
type Exec func(ctx context.Context, digest string, s spec.Spec) (*Entry, *metrics.Registry, error)

// PoolConfig configures a Pool.
type PoolConfig struct {
	// Workers is the runner.Map parallelism per batch (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the jobs admitted but not yet batched; Submit
	// returns ErrQueueFull beyond it (default 64).
	QueueDepth int
	// BatchMax is the most jobs one runner.Map batch executes (default
	// 2x Workers, minimum 4): large enough to fill the workers, small
	// enough that a queued job never waits behind an unbounded batch.
	BatchMax int
	// JobTimeout is each job's wall-clock budget (0 = none).
	JobTimeout time.Duration
	// Exec executes one job (required).
	Exec Exec
	// Done, if non-nil, observes every finished job before its waiters
	// are released, called from the dispatcher goroutine in batch
	// order — the server uses it to populate the cache and merge
	// simulation metrics deterministically.
	Done func(j *Job)
}

// Job is one admitted execution. Waiters block on Wait; the dispatcher
// fills entry/err and closes done exactly once.
type Job struct {
	Digest string
	Spec   spec.Spec

	done  chan struct{}
	entry *Entry
	reg   *metrics.Registry
	err   error
}

// Wait blocks until the job finishes or ctx is cancelled. On success
// the returned entry is the same immutable value every coalesced
// waiter receives.
func (j *Job) Wait(ctx context.Context) (*Entry, error) {
	select {
	case <-j.done:
		return j.entry, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Err returns the job's terminal error (nil before completion or on
// success).
func (j *Job) Err() error {
	select {
	case <-j.done:
		return j.err
	default:
		return nil
	}
}

// PoolStats is a snapshot of the pool counters.
type PoolStats struct {
	Submitted uint64 // jobs admitted to the queue
	Coalesced uint64 // submissions attached to an in-flight duplicate
	Rejected  uint64 // submissions refused with ErrQueueFull
	Completed uint64 // jobs finished successfully
	Failed    uint64 // jobs finished with an error
	Batches   uint64 // runner.Map batches dispatched
	Inflight  int    // jobs admitted but not yet finished
}

// Pool executes jobs by batching them through runner.Map. One
// dispatcher goroutine pulls admitted jobs, gathers up to BatchMax of
// them, and fans the batch across the worker pool; duplicate digests
// submitted while a job is queued or running coalesce onto the same
// Job rather than running twice.
type Pool struct {
	cfg    PoolConfig
	ctx    context.Context // cancelled to force-abort in-flight work
	cancel context.CancelFunc

	mu       sync.Mutex
	closed   bool
	inflight map[string]*Job
	queue    chan *Job
	drained  chan struct{} // closed when the dispatcher exits

	// Shared counters follow the workersafety discipline for state
	// touched from runner.Map workers and concurrent submitters: every
	// access is an atomic.Uint64 Add/Load, never a bare x++ (a
	// read-modify-write the lint would flag as a racy counter).
	// submitted/coalesced/rejected are bumped by Submit callers under
	// mu; completed/failed/batches are bumped from batch completions on
	// worker goroutines.
	submitted, coalesced, rejected atomic.Uint64
	completed, failed, batches     atomic.Uint64
}

// NewPool starts a pool's dispatcher.
func NewPool(cfg PoolConfig) *Pool {
	if cfg.Exec == nil {
		panic("serve: PoolConfig.Exec is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 2 * cfg.Workers
		if cfg.BatchMax < 4 {
			cfg.BatchMax = 4
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		cfg:      cfg,
		ctx:      ctx,
		cancel:   cancel,
		inflight: make(map[string]*Job),
		queue:    make(chan *Job, cfg.QueueDepth),
		drained:  make(chan struct{}),
	}
	go p.dispatch()
	return p
}

// Submit admits a job for the spec (already normalized and validated).
// It returns the job to wait on and whether this submission coalesced
// onto an already in-flight duplicate. It fails fast with ErrQueueFull
// when the admission queue is full and ErrShuttingDown after Close.
func (p *Pool) Submit(digest string, s spec.Spec) (j *Job, coalesced bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, false, ErrShuttingDown
	}
	if j := p.inflight[digest]; j != nil {
		p.coalesced.Add(1)
		return j, true, nil
	}
	j = &Job{Digest: digest, Spec: s, done: make(chan struct{})}
	select {
	case p.queue <- j:
		p.inflight[digest] = j
		p.submitted.Add(1)
		return j, false, nil
	default:
		p.rejected.Add(1)
		return nil, false, ErrQueueFull
	}
}

// Running reports whether digest is admitted but not yet finished.
func (p *Pool) Running(digest string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inflight[digest] != nil
}

// Close shuts the pool down gracefully: no new submissions are
// admitted, queued and running jobs drain, and waiters are released.
// If ctx expires before the drain completes, in-flight work is
// force-cancelled (jobs finish with a cancellation error) and Close
// returns ctx.Err(). Close is idempotent.
func (p *Pool) Close(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	select {
	case <-p.drained:
		return nil
	case <-ctx.Done():
		p.cancel()
		<-p.drained
		return ctx.Err()
	}
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	inflight := len(p.inflight)
	p.mu.Unlock()
	return PoolStats{
		Submitted: p.submitted.Load(),
		Coalesced: p.coalesced.Load(),
		Rejected:  p.rejected.Load(),
		Completed: p.completed.Load(),
		Failed:    p.failed.Load(),
		Batches:   p.batches.Load(),
		Inflight:  inflight,
	}
}

// dispatch is the pool's single dispatcher loop: pull one job
// (blocking), top the batch up without blocking, run the batch, repeat
// until the queue is closed and empty.
func (p *Pool) dispatch() {
	defer close(p.drained)
	for {
		j, ok := <-p.queue
		if !ok {
			return
		}
		batch := []*Job{j}
	fill:
		for len(batch) < p.cfg.BatchMax {
			select {
			case j2, ok := <-p.queue:
				if !ok {
					break fill
				}
				batch = append(batch, j2)
			default:
				break fill
			}
		}
		p.runBatch(batch)
	}
}

// outcome is a worker's return value; finalization happens on the
// dispatcher after runner.Map so workers never write shared state.
type outcome struct {
	entry *Entry
	reg   *metrics.Registry
	err   error
}

func (p *Pool) runBatch(batch []*Job) {
	p.batches.Add(1)
	results, panics := runner.Map(runner.Options{
		Parallel: p.cfg.Workers,
		Context:  p.ctx,
		Label:    func(i int) string { return batch[i].Digest },
	}, len(batch), func(i int) outcome {
		ctx := p.ctx
		if p.cfg.JobTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, p.cfg.JobTimeout)
			defer cancel()
		}
		entry, reg, err := p.cfg.Exec(ctx, batch[i].Digest, batch[i].Spec)
		return outcome{entry: entry, reg: reg, err: err}
	})

	panicked := make(map[int]*runner.Panic, len(panics))
	for _, pc := range panics {
		panicked[pc.Index] = pc
	}
	for i, j := range batch {
		switch {
		case panicked[i] != nil:
			j.err = fmt.Errorf("serve: job %s: %w", j.Digest, panicked[i])
		case results[i].entry == nil && results[i].err == nil:
			// Skipped by the runner: the pool was force-cancelled before
			// this job started.
			j.err = ErrShuttingDown
		default:
			j.entry, j.reg, j.err = results[i].entry, results[i].reg, results[i].err
		}
		if j.err != nil {
			p.failed.Add(1)
		} else {
			p.completed.Add(1)
		}
		if p.cfg.Done != nil {
			p.cfg.Done(j)
		}
		p.mu.Lock()
		delete(p.inflight, j.Digest)
		p.mu.Unlock()
		close(j.done)
	}
}
