// Package serve turns the deterministic simulator into a long-running
// experiment service: an HTTP/JSON job API over a content-addressed
// result cache and a batching execution pool.
//
// The layering is digest → cache → pool → runner:
//
//   - a Spec canonically names one experiment (machine configuration +
//     workload selector + seed) and hashes to a stable content digest
//     (internal/digest);
//   - because PRs 3–4 made every run byte-identical for a given spec,
//     the digest is a perfect cache key: the bounded LRU Cache maps
//     digests to rendered result payloads, so a repeated spec costs a
//     map lookup instead of a simulation;
//   - the Pool batches cache misses through runner.Map with admission
//     control (bounded queue, queue-full rejection), per-job limits
//     (node ceiling, event budget, wall-clock timeout threaded into
//     the sim loop via machine.RunContext), duplicate-submission
//     coalescing (concurrent identical specs share one run), and
//     graceful draining shutdown;
//   - the Server exposes it all as HTTP: POST /v1/jobs, GET
//     /v1/jobs/{digest}, GET /v1/jobs/{digest}/trace, GET /v1/metrics,
//     GET /healthz.
//
// Unlike every package under the simulation lint scope, serve is
// wall-clock-legitimate: request latencies, timeouts and eviction
// order are service concerns, not simulation outcomes. Determinism is
// preserved where it matters — the cached payload bytes for a digest
// are identical no matter which worker, batch or process produced
// them, and cenju4-load asserts that contract under load.
package serve

import (
	"fmt"
	"strings"

	"cenju4/internal/core"
	"cenju4/internal/digest"
	"cenju4/internal/faults"
	"cenju4/internal/npb"
	"cenju4/internal/topology"
)

// Spec is the canonical job specification: everything that determines
// a simulation's outcome, and nothing else. JSON field names are the
// wire format of POST /v1/jobs.
//
// The zero value of every optional field means "the default", and
// Normalize rewrites a spec into its canonical form (defaults filled,
// names lowercased) before digesting, so two clients spelling the same
// experiment differently share one cache entry.
type Spec struct {
	// App and Variant select the workload: one of the four NPB kernels
	// ("bt", "cg", "ft", "sp") in one program form ("seq", "mpi",
	// "dsm1", "dsm2").
	App     string `json:"app"`
	Variant string `json:"variant"`
	// Nodes is the machine size (power of two; default 16, forced to 1
	// for seq).
	Nodes int `json:"nodes,omitempty"`
	// NoMapping disables the shared-data mappings (dsm variants).
	NoMapping bool `json:"no_mapping,omitempty"`
	// Iterations is the outer time-step count (default 2).
	Iterations int `json:"iterations,omitempty"`
	// Scale is the problem size relative to NPB Class A (default 0.05).
	Scale float64 `json:"scale,omitempty"`
	// Seed labels the run in observability output. The simulation is
	// deterministic — the seed does not perturb it — but it is part of
	// the digest, so distinct seeds are distinct cache entries (the
	// load generator exploits this for cheap unique specs).
	Seed int64 `json:"seed,omitempty"`
	// Protocol selects the coherence protocol: "queuing" (default) or
	// "nack".
	Protocol string `json:"protocol,omitempty"`
	// Stages overrides the network stage count (0 = paper default).
	Stages int `json:"stages,omitempty"`
	// NoMulticast disables the network's multicast/gathering hardware.
	NoMulticast bool `json:"no_multicast,omitempty"`
	// UpdateProtocol runs the hot shared region under the update-type
	// protocol extension.
	UpdateProtocol bool `json:"update_protocol,omitempty"`
	// TraceMax, when positive, collects up to that many protocol trace
	// events; the Chrome-trace payload is served from
	// GET /v1/jobs/{digest}/trace.
	TraceMax int `json:"trace_max,omitempty"`
	// Fault is a deterministic fault plan: a preset name
	// ("light-loss") or a k=v spec ("drop=0.02,seed=7"), canonicalized
	// by Normalize so equivalent spellings share a cache entry. An
	// unrecoverable plan aborts the job with the machine watchdog's
	// diagnosis (classified distinctly from budget and timeout
	// aborts). Empty means fault-free.
	Fault string `json:"fault,omitempty"`
}

// Normalize returns the canonical form of s: defaults filled in and
// names folded to their canonical spellings. It does not validate —
// call Validate on the result.
func (s Spec) Normalize() Spec {
	s.App = strings.ToLower(s.App)
	s.Variant = canonicalVariant(s.Variant)
	s.Protocol = strings.ToLower(s.Protocol)
	if s.Protocol == "" {
		s.Protocol = "queuing"
	}
	if s.Nodes == 0 {
		s.Nodes = 16
	}
	if s.Variant == "seq" {
		s.Nodes = 1
	}
	if s.Iterations == 0 {
		s.Iterations = 2
	}
	if s.Scale == 0 {
		s.Scale = 0.05
	}
	if s.TraceMax < 0 {
		s.TraceMax = 0
	}
	if s.Fault != "" {
		// Canonicalize so "drop=0.02" and " DROP=0.02 " digest alike;
		// an unparsable plan is left verbatim for Validate to report.
		if f, err := faults.ParseSpec(s.Fault); err == nil {
			s.Fault = f.String()
			if !f.Enabled() {
				s.Fault = ""
			}
		}
	}
	return s
}

// canonicalVariant folds the accepted variant spellings ("dsm(2)",
// "DSM2", ...) to the compact wire form.
func canonicalVariant(v string) string {
	switch strings.ToLower(v) {
	case "dsm1", "dsm(1)":
		return "dsm1"
	case "dsm2", "dsm(2)":
		return "dsm2"
	default:
		return strings.ToLower(v)
	}
}

// Validate checks a normalized spec for well-formedness. It reports
// malformed specs (unknown names, impossible sizes) — resource ceilings
// are the Limits' concern, not the spec's.
func (s Spec) Validate() error {
	if _, err := npb.ParseApp(s.App); err != nil {
		return fmt.Errorf("serve: bad spec: %w", err)
	}
	v, err := npb.ParseVariant(s.Variant)
	if err != nil {
		return fmt.Errorf("serve: bad spec: %w", err)
	}
	if v == npb.Seq && s.Nodes != 1 {
		return fmt.Errorf("serve: bad spec: seq runs on exactly 1 node, got %d", s.Nodes)
	}
	if !topology.ValidNodeCount(s.Nodes) {
		return fmt.Errorf("serve: bad spec: node count %d is not a power of two <= %d", s.Nodes, topology.MaxNodes)
	}
	if s.Protocol != "queuing" && s.Protocol != "nack" {
		return fmt.Errorf("serve: bad spec: unknown protocol %q (want queuing or nack)", s.Protocol)
	}
	if s.Scale < 0.001 || s.Scale > 4 {
		return fmt.Errorf("serve: bad spec: scale %g out of range [0.001, 4]", s.Scale)
	}
	if s.Iterations < 1 || s.Iterations > 64 {
		return fmt.Errorf("serve: bad spec: iterations %d out of range [1, 64]", s.Iterations)
	}
	if s.Stages != 0 {
		if s.Stages < 2 || s.Stages > 6 || s.Stages%2 != 0 {
			return fmt.Errorf("serve: bad spec: stages %d (want 0 for default, or 2, 4, 6)", s.Stages)
		}
	}
	if s.Fault != "" {
		f, err := faults.ParseSpec(s.Fault)
		if err != nil {
			return fmt.Errorf("serve: bad spec: %w", err)
		}
		if err := f.Normalize().Validate(); err != nil {
			return fmt.Errorf("serve: bad spec: %w", err)
		}
	}
	return nil
}

// fault returns the compiled-in fault plan of a validated spec.
func (s Spec) fault() faults.Spec {
	if s.Fault == "" {
		return faults.Spec{}
	}
	f, err := faults.ParseSpec(s.Fault)
	if err != nil {
		// Validate already rejected unparsable plans.
		panic(fmt.Sprintf("serve: fault plan %q: %v", s.Fault, err))
	}
	return f.Normalize()
}

// mode returns the core protocol mode of a validated spec.
func (s Spec) mode() core.Mode {
	if s.Protocol == "nack" {
		return core.ModeNack
	}
	return core.ModeQueuing
}

// specEncoding versions the digest encoding. Bump it when a field is
// added or the canonical form changes: old cache entries then miss
// instead of aliasing new specs. (v2: fault plan; v3: intra-run shard
// count; v4: shard count removed.)
const specEncoding = "cenju4-serve spec v4"

// Digest returns the content address of a spec: the canonical SHA-256
// of its normalized encoding. Every field that can change a
// simulation's outcome (or its observability payload) is written, in
// declaration order; the golden-stability and field-sensitivity tests
// in spec_test.go pin the encoding.
func (s Spec) Digest() string {
	n := s.Normalize()
	w := digest.New()
	w.Printf("%s\n", specEncoding)
	w.Printf("app=%q variant=%q nodes=%d mapped=%t\n", n.App, n.Variant, n.Nodes, !n.NoMapping)
	w.Printf("iters=%d scale=%g seed=%d\n", n.Iterations, n.Scale, n.Seed)
	w.Printf("protocol=%q stages=%d multicast=%t update=%t trace=%d\n",
		n.Protocol, n.Stages, !n.NoMulticast, n.UpdateProtocol, n.TraceMax)
	w.Printf("fault=%q\n", n.Fault)
	return w.Sum()
}

// Limits are the service's per-job resource ceilings, enforced at
// admission (MaxNodes) and inside the run (MaxEvents as an event
// budget, Pool.JobTimeout as a wall-clock deadline).
type Limits struct {
	// MaxNodes caps the machine size a job may request (0 = the
	// topology maximum).
	MaxNodes int
	// MaxEvents caps the number of simulation events a job may fire
	// (0 = unlimited).
	MaxEvents uint64
}

// Check reports whether a validated spec fits the limits.
func (l Limits) Check(s Spec) error {
	maxNodes := l.MaxNodes
	if maxNodes <= 0 {
		maxNodes = topology.MaxNodes
	}
	if s.Nodes > maxNodes {
		return fmt.Errorf("serve: over limit: %d nodes exceeds the service ceiling of %d", s.Nodes, maxNodes)
	}
	return nil
}
