// Package spec is the one run description of the reproduction: a Spec
// names one application in one program form on one machine
// configuration (the unit of the paper's Figures 11-12 and Tables 3-4),
// hashes to a stable content digest, and runs through the single path
// from description to checked result — npb.Build, machine.New,
// machine.RunContext, machine.Validate. The cenju4 facade, the
// experiment harness and the serve layer all run workloads through it.
package spec

import (
	"context"
	"fmt"
	"strings"

	"cenju4/internal/core"
	"cenju4/internal/cpu"
	"cenju4/internal/digest"
	"cenju4/internal/faults"
	"cenju4/internal/machine"
	"cenju4/internal/npb"
	"cenju4/internal/trace"
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
// are the serve layer's concern, not the spec's. A node or stage count
// the machine cannot be built with is reported as
// machine.Config.Validate's named error, a bad fault plan as
// faults.ParseSpec's error.
func (s Spec) Validate() error {
	if _, err := npb.ParseApp(s.App); err != nil {
		return fmt.Errorf("spec: bad spec: %w", err)
	}
	v, err := npb.ParseVariant(s.Variant)
	if err != nil {
		return fmt.Errorf("spec: bad spec: %w", err)
	}
	if v == npb.Seq && s.Nodes != 1 {
		return fmt.Errorf("spec: bad spec: seq runs on exactly 1 node, got %d", s.Nodes)
	}
	if _, err := s.machineConfig(); err != nil {
		return fmt.Errorf("spec: bad spec: %w", err)
	}
	if s.Protocol != "queuing" && s.Protocol != "nack" {
		return fmt.Errorf("spec: bad spec: unknown protocol %q (want queuing or nack)", s.Protocol)
	}
	if s.Scale < 0.001 || s.Scale > 4 {
		return fmt.Errorf("spec: bad spec: scale %g out of range [0.001, 4]", s.Scale)
	}
	if s.Iterations < 1 || s.Iterations > 64 {
		return fmt.Errorf("spec: bad spec: iterations %d out of range [1, 64]", s.Iterations)
	}
	if s.Stages != 0 {
		if s.Stages < 2 || s.Stages > 6 || s.Stages%2 != 0 {
			return fmt.Errorf("spec: bad spec: stages %d (want 0 for default, or 2, 4, 6)", s.Stages)
		}
	}
	return nil
}

// machineConfig returns the validated machine s describes, less the
// workload's update region (which only npb.Build knows).
func (s Spec) machineConfig() (machine.Config, error) {
	f, err := faults.ParseSpec(s.Fault)
	if err != nil {
		return machine.Config{}, err
	}
	mode := core.ModeQueuing
	if s.Protocol == "nack" {
		mode = core.ModeNack
	}
	cfg := machine.Config{
		Nodes:     s.Nodes,
		Stages:    s.Stages,
		Multicast: !s.NoMulticast,
		Mode:      mode,
		Fault:     f,
	}
	return cfg, cfg.Validate()
}

// specEncoding versions the digest encoding. Bump it when a field is
// added or the canonical form changes: old cache entries then miss
// instead of aliasing new specs. (v2: fault plan; v3: intra-run shard
// count; v4: shard count removed.)
const specEncoding = "cenju4-serve spec v4"

// Digest returns the content address of a spec: the canonical SHA-256
// of its normalized encoding. Every field that can change a
// simulation's outcome (or its observability payload) is written, in
// declaration order. The digest is the serve layer's cache key, so its
// golden-stability and field-sensitivity tests live in internal/serve.
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

// Outcome is a finished run whose machine passed machine.Validate.
type Outcome struct {
	// Machine is the idle machine after the run, for metrics and
	// latency histograms.
	Machine *machine.Machine
	Result  machine.Result
	Meta    npb.Meta
}

// Run builds the workload and the machine s describes, runs it under
// ctx and the event budget maxEvents (0 = unlimited), and checks
// machine-wide coherence before trusting the result. col, when
// non-nil, collects the protocol event stream. Run fills no defaults:
// pass a normalized spec (Normalize) or one whose fields are all set.
// Budget and context aborts, watchdog trips and coherence violations
// come back as errors.
func (s Spec) Run(ctx context.Context, col *trace.Collector, maxEvents uint64) (Outcome, error) {
	app, err := npb.ParseApp(s.App)
	if err != nil {
		return Outcome{}, err
	}
	variant, err := npb.ParseVariant(s.Variant)
	if err != nil {
		return Outcome{}, err
	}
	cfg, err := s.machineConfig()
	if err != nil {
		return Outcome{}, err
	}
	w, err := npb.Build(npb.Options{
		App:            app,
		Variant:        variant,
		Nodes:          s.Nodes,
		DataMapping:    !s.NoMapping,
		Iterations:     s.Iterations,
		Scale:          s.Scale,
		UpdateProtocol: s.UpdateProtocol,
	})
	if err != nil {
		return Outcome{}, err
	}
	cfg.UpdateMode = w.UpdateMode
	m := machine.New(cfg)
	if col != nil {
		m.SetTracer(col.Tracer())
	}
	r, err := m.RunContext(ctx, w.Progs, maxEvents)
	if err != nil {
		return Outcome{}, err
	}
	if err := m.Validate(); err != nil {
		return Outcome{}, fmt.Errorf("spec: coherence violated by %s/%s: %w", s.App, s.Variant, err)
	}
	return Outcome{Machine: m, Result: r, Meta: w.Meta}, nil
}

// MissShares splits tot's secondary-cache misses by address class:
// the private, local and remote fractions of all misses (all zero when
// nothing missed).
func MissShares(tot cpu.Stats) (private, local, remote float64) {
	misses := float64(tot.Misses)
	if misses == 0 {
		misses = 1
	}
	return float64(tot.PrivateMisses) / misses, float64(tot.LocalMisses) / misses, float64(tot.RemoteMisses) / misses
}

// SyncFraction is r's synchronization time over its total processor
// time, averaged over the nodes (0 for an empty run).
func SyncFraction(r machine.Result) float64 {
	if r.Time == 0 {
		return 0
	}
	return float64(r.Totals().SyncTime) / (float64(r.Time) * float64(len(r.PerNode)))
}
