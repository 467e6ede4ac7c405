package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"cenju4/internal/machine"
	"cenju4/internal/metrics"
	"cenju4/internal/spec"
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
	Spec    spec.Spec       `json:"spec"`
	Result  Summary         `json:"result"`
	Metrics json.RawMessage `json:"metrics"`
}

// Execute runs one validated, normalized spec to completion through
// spec.Run and renders its cache entry. It honours ctx (wall-clock
// timeout, shutdown) and maxEvents (per-job event budget).
func Execute(ctx context.Context, dig string, s spec.Spec, maxEvents uint64) (*Entry, *metrics.Registry, error) {
	var col *trace.Collector
	if s.TraceMax > 0 {
		col = trace.NewCollector(s.TraceMax)
	}
	out, err := s.Run(ctx, col, maxEvents)
	if err != nil {
		return nil, nil, err
	}

	reg := metrics.New()
	reg.Gauge("run/seed").Peak(s.Seed)
	out.Machine.MetricsInto(reg)
	var regJSON bytes.Buffer
	if err := reg.WriteJSON(&regJSON); err != nil {
		return nil, nil, err
	}

	r := out.Result
	tot := r.Totals()
	private, local, remote := spec.MissShares(tot)
	sum := Summary{
		TimeNs:           r.Time.Nanoseconds(),
		Events:           r.Events,
		Instructions:     tot.Instructions,
		MemAccesses:      tot.MemAccesses,
		MissRatio:        tot.MissRatio(),
		PrivateMissShare: private,
		LocalMissShare:   local,
		RemoteMissShare:  remote,
		SyncFraction:     spec.SyncFraction(r),
		RewriteRatio:     out.Meta.RewriteRatio,
		ResultDigest:     machine.Digest(r),
	}
	body, err := json.MarshalIndent(Payload{
		Digest:  dig,
		Spec:    s,
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
		label := fmt.Sprintf("%s/%s nodes=%d seed=%d", s.App, s.Variant, s.Nodes, s.Seed)
		if _, err := trace.WriteChrome(&tr, col.Stream(label)); err != nil {
			return nil, nil, err
		}
		e.Trace = tr.Bytes()
	}
	return e, reg, nil
}
