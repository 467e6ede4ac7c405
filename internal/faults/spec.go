// Package faults is the deterministic fault-injection layer for the
// Cenju-4 reproduction: seed-derived fault *plans* that drop,
// duplicate, delay or corrupt coherence messages at network delivery
// points, stall switch stages, and squeeze module FIFO capacities —
// all decided in virtual time from a splitmix64 stream, so the same
// (config, seed, plan) produces a byte-identical simulation at any
// -parallel level.
//
// A Spec is the user-facing plan description (rates + windows + seed);
// Compile turns it into an Injector the network consults per endpoint
// delivery. The package deliberately separates the *fault model* from
// the *recovery model*: recovery knobs (master request timeout,
// retransmit limit) ride in the same Spec because one plan should be
// one self-contained, digestible description, but the machinery lives
// in internal/core.
//
// Recoverability is a property of the plan's Scope, not of luck:
//
//   - ScopeRequestReply (the default) faults only the master<->home
//     request/reply plane, excluding WriteBack. Every faulted message
//     has a master-side timeout watching it, so drops (and corruptions,
//     which the checksum turns into detected drops) are repaired by
//     bounded retransmit. These plans must pass the consistency oracle
//     and match fault-free golden digests... of their own (spec, seed):
//     recovery changes timing, never outcome.
//   - ScopeForwards / ScopeRepliesToHome / ScopeAll can break the
//     protocol by design (a dropped forward strands a pending directory
//     entry forever; a dropped WriteBack would silently lose dirty
//     data, which is why even ScopeAll never drops WriteBack). Such
//     plans exist to prove the watchdog fires with a diagnosis instead
//     of hanging.
//
// The package is in the determinism analyzer's simulation scope: no
// wall clock, no global rand, no map iteration.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cenju4/internal/sim"
)

// Scope selects which message kinds a plan may fault.
type Scope uint8

const (
	// ScopeRequestReply faults master->home requests (ReadShared,
	// ReadExclusive, Ownership, UpdateWrite — never WriteBack) and
	// home->master replies (HomeData, HomeAck, Nack). This is the
	// recoverable plane: the master's timeout/retransmit machinery
	// repairs every loss.
	ScopeRequestReply Scope = iota
	// ScopeForwards faults home->slave traffic (forwarded requests and
	// singlecast invalidations). Drops here strand pending directory
	// entries: unrecoverable by design, watchdog territory.
	ScopeForwards
	// ScopeRepliesToHome faults slave->home replies. Drops here strand
	// the home's pending transaction: unrecoverable by design.
	ScopeRepliesToHome
	// ScopeAll faults every kind except WriteBack (whose loss would be
	// silent dirty-data loss with no detecting party).
	ScopeAll
)

var scopeNames = [...]string{"request-reply", "forwards", "replies-to-home", "all"}

func (s Scope) String() string {
	if int(s) < len(scopeNames) {
		return scopeNames[s]
	}
	return fmt.Sprintf("Scope(%d)", uint8(s))
}

// ParseScope parses the textual form used by CLI flags and serve specs.
func ParseScope(s string) (Scope, error) {
	for i, n := range scopeNames {
		if s == n {
			return Scope(i), nil
		}
	}
	return 0, fmt.Errorf("faults: unknown scope %q (want request-reply|forwards|replies-to-home|all)", s)
}

// Default recovery constants. The timeout comfortably exceeds the worst
// observed transaction latency (a 1023-sharer singlecast invalidation
// storm takes ~148µs), so fault-free traffic never retransmits
// spuriously; exponential backoff (timeout << resends) keeps even
// pathological plans from retry-storming the network.
const (
	// DefaultTimeout is the master's per-request retransmit timer in
	// simulated nanoseconds.
	DefaultTimeout sim.Time = 500_000
	// DefaultRetries is the bounded retransmit limit per transaction.
	// With independent per-message drop decisions at rate p, a
	// transaction is abandoned with probability ~p^(DefaultRetries+1);
	// at the chaos grid's p <= 0.05 that is < 4e-11.
	DefaultRetries = 7
)

// Spec is one fault plan: what to inject, where, when, how often, and
// how the machine is allowed to recover. The zero Spec injects nothing
// and enables no recovery machinery (the fault-free hot path stays
// byte- and alloc-identical to a build without this package).
type Spec struct {
	// Seed drives the plan's splitmix64 decision stream. A zero seed is
	// normalized to 1 when the plan injects anything, so "same spec" is
	// always a complete description of behavior.
	Seed uint64

	// Drop, Dup, Delay, Corrupt are per-delivery fault probabilities in
	// [0,1]. They are mutually exclusive per message (one draw, banded):
	// a message is dropped, duplicated, delayed or corrupted, never two
	// of those at once.
	Drop    float64
	Dup     float64
	Delay   float64
	Corrupt float64

	// DelayBy is the extra latency applied to delayed messages.
	// Delivery order per (src,dst) pair is still preserved (the
	// injector keeps per-pair floors), matching the hardware guarantee
	// that one physical path never reorders.
	DelayBy sim.Time

	// From/Until bound the injection window in virtual time
	// (Until == 0 means no upper bound). Outside the window the plan is
	// inert.
	From  sim.Time
	Until sim.Time

	// Scope selects the faultable message kinds; see the Scope docs for
	// the recoverability contract.
	Scope Scope

	// StallEvery stalls every Nth switch-stage traversal by StallFor
	// (0 disables). Stalls model a backpressured switch: they slow the
	// message, they never lose it.
	StallEvery int
	StallFor   sim.Time

	// MaxFaults caps the total number of injected faults (drops + dups
	// + delays + corruptions + stalls); 0 means unlimited.
	MaxFaults int

	// Timeout is the master's per-request retransmit timer; 0 means
	// DefaultTimeout when the plan injects anything, disabled otherwise.
	Timeout sim.Time
	// Retries is the retransmit limit; 0 means DefaultRetries when
	// recovery is armed.
	Retries int

	// ModuleBuf squeezes every module's hardware FIFO to this many
	// entries (0 keeps the default 4). Squeezing to 1 forces constant
	// spill through the memory-resident overflow regions — the paper's
	// deadlock-prevention machinery — without violating their sizing
	// invariant.
	ModuleBuf int
}

// Injecting reports whether the plan injects any network fault (and so
// needs an Injector compiled into the network).
func (s Spec) Injecting() bool {
	return s.Drop > 0 || s.Dup > 0 || s.Delay > 0 || s.Corrupt > 0 || s.StallEvery > 0
}

// Enabled reports whether the plan changes the machine at all.
func (s Spec) Enabled() bool {
	return s.Injecting() || s.ModuleBuf > 0 || s.Timeout > 0
}

// Recovering reports whether the plan arms the master timeout/
// retransmit machinery (after Normalize this is simply Timeout > 0).
func (s Spec) Recovering() bool { return s.Timeout > 0 }

// Normalize fills derived defaults: a seed for any injecting plan, a
// delay amount for delay plans, stall duration for stall plans, and the
// recovery defaults whenever the plan injects anything. It returns the
// completed spec.
func (s Spec) Normalize() Spec {
	if s.Injecting() {
		if s.Seed == 0 {
			s.Seed = 1
		}
		if s.Timeout == 0 {
			s.Timeout = DefaultTimeout
		}
	}
	if s.Delay > 0 && s.DelayBy == 0 {
		s.DelayBy = 2000
	}
	if s.StallEvery > 0 && s.StallFor == 0 {
		s.StallFor = 1000
	}
	if s.Timeout > 0 && s.Retries == 0 {
		s.Retries = DefaultRetries
	}
	return s
}

// Validate rejects malformed plans.
func (s Spec) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", s.Drop}, {"dup", s.Dup}, {"delay", s.Delay}, {"corrupt", s.Corrupt}} {
		if !(p.v >= 0 && p.v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("faults: %s rate %v outside [0,1]", p.name, p.v)
		}
	}
	if s.Drop+s.Dup+s.Delay+s.Corrupt > 1 {
		return fmt.Errorf("faults: rates sum to %v > 1 (they are bands of one draw)", s.Drop+s.Dup+s.Delay+s.Corrupt)
	}
	if s.Until != 0 && s.Until < s.From {
		return fmt.Errorf("faults: window until=%d before from=%d", s.Until, s.From)
	}
	if int(s.Scope) >= len(scopeNames) {
		return fmt.Errorf("faults: unknown scope %d", s.Scope)
	}
	if s.StallEvery < 0 || s.MaxFaults < 0 || s.Retries < 0 || s.ModuleBuf < 0 {
		return fmt.Errorf("faults: negative count field")
	}
	return nil
}

// String renders the canonical textual form: the non-zero fields as
// sorted key=value pairs, or "none" for the zero spec. ParseSpec
// round-trips it, and serve's spec digest embeds it, so the rendering
// must stay deterministic and injective.
func (s Spec) String() string {
	var kv []string
	add := func(k, v string) { kv = append(kv, k+"="+v) }
	if s.Seed != 0 {
		add("seed", strconv.FormatUint(s.Seed, 10))
	}
	for _, p := range []struct {
		k string
		v float64
	}{{"drop", s.Drop}, {"dup", s.Dup}, {"delay", s.Delay}, {"corrupt", s.Corrupt}} {
		if p.v != 0 {
			add(p.k, strconv.FormatFloat(p.v, 'g', -1, 64))
		}
	}
	for _, p := range []struct {
		k string
		v uint64
	}{
		{"delay-by", uint64(s.DelayBy)}, {"from", uint64(s.From)}, {"until", uint64(s.Until)},
		{"stall-every", uint64(s.StallEvery)}, {"stall-for", uint64(s.StallFor)},
		{"max-faults", uint64(s.MaxFaults)}, {"timeout", uint64(s.Timeout)},
		{"retries", uint64(s.Retries)}, {"module-buf", uint64(s.ModuleBuf)},
	} {
		if p.v != 0 {
			add(p.k, strconv.FormatUint(p.v, 10))
		}
	}
	if s.Scope != ScopeRequestReply {
		add("scope", s.Scope.String())
	}
	if len(kv) == 0 {
		return "none"
	}
	sort.Strings(kv)
	return strings.Join(kv, ",")
}

// Presets returns the named plan shorthands ParseSpec accepts, in a
// fixed order (no map, per the determinism lint). Every preset except
// drop-forwards is recoverable.
func Presets() []struct {
	Name string
	Spec Spec
} {
	return []struct {
		Name string
		Spec Spec
	}{
		{"light-loss", Spec{Drop: 0.02}},
		{"dup-delay", Spec{Dup: 0.02, Delay: 0.05, DelayBy: 3000}},
		{"corrupt", Spec{Corrupt: 0.02}},
		{"stall", Spec{StallEvery: 64, StallFor: 2000}},
		{"squeeze", Spec{Drop: 0.01, ModuleBuf: 1}},
		{"drop-forwards", Spec{Drop: 0.05, Scope: ScopeForwards}},
	}
}

// ParseSpec parses a plan from its textual form: "none", a preset name
// (see Presets), or a comma-separated key=value list using the same
// keys String emits. The result is normalized.
func ParseSpec(text string) (Spec, error) {
	text = strings.TrimSpace(text)
	if text == "" || text == "none" {
		return Spec{}, nil
	}
	if !strings.Contains(text, "=") {
		for _, p := range Presets() {
			if text == p.Name {
				return p.Spec.Normalize(), nil
			}
		}
		return Spec{}, fmt.Errorf("faults: unknown preset %q (try drop=0.01 syntax, or one of the Presets)", text)
	}
	var s Spec
	for _, part := range strings.Split(text, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Spec{}, fmt.Errorf("faults: %q is not key=value", part)
		}
		var err error
		switch k {
		case "seed":
			s.Seed, err = strconv.ParseUint(v, 10, 64)
		case "drop":
			s.Drop, err = strconv.ParseFloat(v, 64)
		case "dup":
			s.Dup, err = strconv.ParseFloat(v, 64)
		case "delay":
			s.Delay, err = strconv.ParseFloat(v, 64)
		case "corrupt":
			s.Corrupt, err = strconv.ParseFloat(v, 64)
		case "delay-by":
			err = parseTime(v, &s.DelayBy)
		case "from":
			err = parseTime(v, &s.From)
		case "until":
			err = parseTime(v, &s.Until)
		case "scope":
			s.Scope, err = ParseScope(v)
		case "stall-every":
			s.StallEvery, err = strconv.Atoi(v)
		case "stall-for":
			err = parseTime(v, &s.StallFor)
		case "max-faults":
			s.MaxFaults, err = strconv.Atoi(v)
		case "timeout":
			err = parseTime(v, &s.Timeout)
		case "retries":
			s.Retries, err = strconv.Atoi(v)
		case "module-buf":
			s.ModuleBuf, err = strconv.Atoi(v)
		default:
			return Spec{}, fmt.Errorf("faults: unknown key %q", k)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("faults: bad value for %s: %v", k, err)
		}
	}
	s = s.Normalize()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

func parseTime(v string, out *sim.Time) error {
	u, err := strconv.ParseUint(v, 10, 64)
	*out = sim.Time(u)
	return err
}
