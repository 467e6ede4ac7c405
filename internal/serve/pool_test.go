package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cenju4/internal/metrics"
	"cenju4/internal/spec"
)

// stubExec returns an Exec that renders a tiny entry after an optional
// gate, counting invocations.
type stubExec struct {
	runs  atomic.Int64
	gate  chan struct{} // if non-nil, exec blocks until closed
	delay time.Duration
}

func (s *stubExec) exec(ctx context.Context, dig string, _ spec.Spec) (*Entry, *metrics.Registry, error) {
	s.runs.Add(1)
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	return &Entry{Digest: dig, Body: []byte("body:" + dig + "\n")}, nil, nil
}

func TestPoolRunsJob(t *testing.T) {
	st := &stubExec{}
	p := NewPool(PoolConfig{Workers: 2, QueueDepth: 8, Exec: st.exec})
	defer p.Close(context.Background())
	j, coalesced, err := p.Submit("d1", spec.Spec{})
	if err != nil || coalesced {
		t.Fatalf("Submit = (%v, %v)", coalesced, err)
	}
	e, err := j.Wait(context.Background())
	if err != nil || string(e.Body) != "body:d1\n" {
		t.Fatalf("Wait = (%q, %v)", e.Body, err)
	}
	if st.runs.Load() != 1 {
		t.Fatalf("exec ran %d times, want 1", st.runs.Load())
	}
}

// TestPoolCoalesces: concurrent submissions of one digest share a
// single execution, and every waiter gets the same entry.
func TestPoolCoalesces(t *testing.T) {
	st := &stubExec{gate: make(chan struct{})}
	p := NewPool(PoolConfig{Workers: 2, QueueDepth: 8, Exec: st.exec})
	defer p.Close(context.Background())

	first, coalesced, err := p.Submit("dup", spec.Spec{})
	if err != nil || coalesced {
		t.Fatalf("first Submit = (%v, %v)", coalesced, err)
	}
	// Wait until the job is actually executing so later submissions
	// must coalesce rather than racing the queue.
	for st.runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	entries := make([]*Entry, 10)
	for i := range entries {
		j, coalesced, err := p.Submit("dup", spec.Spec{})
		if err != nil || !coalesced {
			t.Fatalf("duplicate Submit %d = (%v, %v), want coalesced", i, coalesced, err)
		}
		if j != first {
			t.Fatalf("duplicate Submit %d returned a different job", i)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entries[i], _ = j.Wait(context.Background())
		}(i)
	}
	close(st.gate)
	wg.Wait()
	ref, err := first.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if e != ref {
			t.Fatalf("waiter %d got a different entry", i)
		}
	}
	if st.runs.Load() != 1 {
		t.Fatalf("exec ran %d times for one digest, want 1", st.runs.Load())
	}
	if p.Stats().Coalesced != 10 {
		t.Fatalf("coalesced = %d, want 10", p.Stats().Coalesced)
	}
}

// TestPoolQueueFull: admissions beyond QueueDepth are rejected
// distinctly and immediately, not queued.
func TestPoolQueueFull(t *testing.T) {
	st := &stubExec{gate: make(chan struct{})}
	p := NewPool(PoolConfig{Workers: 1, BatchMax: 4, QueueDepth: 2, Exec: st.exec})
	defer func() { close(st.gate); p.Close(context.Background()) }()

	// One job occupies the dispatcher (blocked on the gate); two more
	// fill the queue; the next must bounce.
	var admitted int
	var rejected int
	for i := 0; i < 8; i++ {
		_, _, err := p.Submit(fmt.Sprintf("d%d", i), spec.Spec{})
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrQueueFull):
			rejected++
		default:
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if rejected == 0 {
		t.Fatalf("no submission was rejected (admitted %d)", admitted)
	}
	if got := p.Stats().Rejected; got != uint64(rejected) {
		t.Fatalf("Rejected counter = %d, want %d", got, rejected)
	}
}

// TestPoolGracefulClose: Close drains queued jobs; waiters get real
// results, and later submissions are refused.
func TestPoolGracefulClose(t *testing.T) {
	st := &stubExec{}
	p := NewPool(PoolConfig{Workers: 2, QueueDepth: 16, Exec: st.exec})
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, _, err := p.Submit(fmt.Sprintf("d%d", i), spec.Spec{})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	if err := p.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, j := range jobs {
		if e, err := j.Wait(context.Background()); err != nil || e == nil {
			t.Fatalf("job %d not drained: %v", i, err)
		}
	}
	if _, _, err := p.Submit("late", spec.Spec{}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-Close Submit = %v, want ErrShuttingDown", err)
	}
	if st.runs.Load() != 8 {
		t.Fatalf("exec ran %d times, want 8", st.runs.Load())
	}
}

// TestPoolForcedClose: when the drain deadline expires, in-flight jobs
// are cancelled and waiters are released with an error instead of
// hanging.
func TestPoolForcedClose(t *testing.T) {
	st := &stubExec{gate: make(chan struct{})} // never closed: jobs hang
	p := NewPool(PoolConfig{Workers: 1, QueueDepth: 8, Exec: st.exec})
	j, _, err := p.Submit("stuck", spec.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced Close = %v, want DeadlineExceeded", err)
	}
	if _, err := j.Wait(context.Background()); err == nil {
		t.Fatal("force-cancelled job completed without error")
	}
}

// TestPoolJobTimeout: a job exceeding JobTimeout fails with
// DeadlineExceeded while other jobs are unaffected.
func TestPoolJobTimeout(t *testing.T) {
	slow := &stubExec{gate: make(chan struct{})} // blocks forever
	p := NewPool(PoolConfig{Workers: 2, QueueDepth: 8, JobTimeout: 30 * time.Millisecond, Exec: slow.exec})
	defer p.Close(context.Background())
	j, _, err := p.Submit("slow", spec.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow job err = %v, want DeadlineExceeded", err)
	}
	if p.Stats().Failed != 1 {
		t.Fatalf("failed = %d, want 1", p.Stats().Failed)
	}
}
