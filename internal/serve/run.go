package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"cenju4/internal/machine"
	"cenju4/internal/metrics"
	"cenju4/internal/npb"
	"cenju4/internal/trace"
)

// Summary is the result section of a job payload: the workload-level
// figures the CLIs print, plus the machine result's own content digest
// (machine.Digest), which ties a served payload back to the golden
// regression machinery — two payloads with equal result digests came
// from byte-identical simulations.
type Summary struct {
	TimeNs           uint64  `json:"time_ns"`
	Events           uint64  `json:"events"`
	Instructions     uint64  `json:"instructions"`
	MemAccesses      uint64  `json:"mem_accesses"`
	MissRatio        float64 `json:"miss_ratio"`
	PrivateMissShare float64 `json:"private_miss_share"`
	LocalMissShare   float64 `json:"local_miss_share"`
	RemoteMissShare  float64 `json:"remote_miss_share"`
	SyncFraction     float64 `json:"sync_fraction"`
	RewriteRatio     float64 `json:"rewrite_ratio"`
	ResultDigest     string  `json:"result_digest"`
}

// Payload is the JSON document served for a finished job. Marshalling
// is deterministic (fixed field order, canonical metrics JSON), so for
// a given spec the payload bytes are identical across runs, workers
// and processes — the property the cache and the soak test rely on.
type Payload struct {
	Digest  string          `json:"digest"`
	Spec    Spec            `json:"spec"`
	Result  Summary         `json:"result"`
	Metrics json.RawMessage `json:"metrics"`
}

// Execute runs one validated, normalized spec to completion and
// renders its cache entry. It honours ctx (wall-clock timeout,
// shutdown) and maxEvents (per-job event budget) via
// machine.RunContext, and validates machine-wide coherence before
// trusting the result.
func Execute(ctx context.Context, dig string, spec Spec, maxEvents uint64) (*Entry, *metrics.Registry, error) {
	app, err := npb.ParseApp(spec.App)
	if err != nil {
		return nil, nil, err
	}
	variant, err := npb.ParseVariant(spec.Variant)
	if err != nil {
		return nil, nil, err
	}
	w, err := npb.Build(npb.Options{
		App:            app,
		Variant:        variant,
		Nodes:          spec.Nodes,
		DataMapping:    !spec.NoMapping,
		Iterations:     spec.Iterations,
		Scale:          spec.Scale,
		UpdateProtocol: spec.UpdateProtocol,
	})
	if err != nil {
		return nil, nil, err
	}
	m := machine.New(machine.Config{
		Nodes:      spec.Nodes,
		Stages:     spec.Stages,
		Multicast:  !spec.NoMulticast,
		Mode:       spec.mode(),
		UpdateMode: w.UpdateMode,
		Fault:      spec.fault(),
	})
	var col *trace.Collector
	if spec.TraceMax > 0 {
		col = trace.NewCollector(spec.TraceMax)
		m.SetTracer(col.Tracer())
	}
	r, err := m.RunContext(ctx, w.Progs, maxEvents)
	if err != nil {
		return nil, nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, nil, fmt.Errorf("serve: coherence violated by %s/%s: %w", spec.App, spec.Variant, err)
	}

	reg := metrics.New()
	reg.Gauge("run/seed").Peak(spec.Seed)
	m.MetricsInto(reg)
	var regJSON bytes.Buffer
	if err := reg.WriteJSON(&regJSON); err != nil {
		return nil, nil, err
	}

	tot := r.Totals()
	misses := float64(tot.Misses)
	if misses == 0 {
		misses = 1
	}
	syncFrac := 0.0
	if r.Time > 0 {
		syncFrac = float64(tot.SyncTime) / (float64(r.Time) * float64(spec.Nodes))
	}
	sum := Summary{
		TimeNs:           r.Time.Nanoseconds(),
		Events:           r.Events,
		Instructions:     tot.Instructions,
		MemAccesses:      tot.MemAccesses,
		MissRatio:        tot.MissRatio(),
		PrivateMissShare: float64(tot.PrivateMisses) / misses,
		LocalMissShare:   float64(tot.LocalMisses) / misses,
		RemoteMissShare:  float64(tot.RemoteMisses) / misses,
		SyncFraction:     syncFrac,
		RewriteRatio:     w.Meta.RewriteRatio,
		ResultDigest:     machine.Digest(r),
	}
	body, err := json.MarshalIndent(Payload{
		Digest:  dig,
		Spec:    spec,
		Result:  sum,
		Metrics: json.RawMessage(bytes.TrimSpace(regJSON.Bytes())),
	}, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	body = append(body, '\n')

	e := &Entry{Digest: dig, Body: body}
	if col != nil {
		var tr bytes.Buffer
		label := fmt.Sprintf("%s/%s nodes=%d seed=%d", spec.App, spec.Variant, spec.Nodes, spec.Seed)
		if _, err := trace.WriteChrome(&tr, col.Stream(label)); err != nil {
			return nil, nil, err
		}
		e.Trace = tr.Bytes()
	}
	return e, reg, nil
}
