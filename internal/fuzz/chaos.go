package fuzz

import (
	"fmt"
	"strings"

	"cenju4/internal/faults"
)

// Chaos sweeps run the fuzz matrix under a grid of fault plans and
// hold each plan to its contract:
//
//   - a recoverable plan (faults confined to the request/reply legs
//     the master's timeout+retransmit machinery covers) must pass the
//     shadow-memory oracle on every case, and the whole sweep must be
//     byte-identical at every parallelism level;
//   - an unrecoverable plan (faults on legs recovery cannot repair,
//     e.g. dropped forwards) must abort within the event budget — never
//     hang, never corrupt silently. Under the queuing protocol the
//     wedge goes quiescent and the watchdog fires with a stuck-state
//     diagnosis; under the nack protocol the wedge livelocks (endless
//     nack/retry) and the event budget is the backstop that bounds it.

// Plan is one named fault plan with its expected outcome.
type Plan struct {
	Name string
	Spec faults.Spec
	// ExpectRecover: every case completes and passes the oracle.
	// Otherwise: at least one case must trip the watchdog, and every
	// tripped case must carry a stuck-state diagnosis.
	ExpectRecover bool
}

// DefaultPlans is the chaos grid: every recoverable preset, plus one
// deliberately unrecoverable plan proving the watchdog story.
func DefaultPlans() []Plan {
	var plans []Plan
	for _, p := range faults.Presets() {
		plans = append(plans, Plan{Name: p.Name, Spec: p.Spec, ExpectRecover: Recoverable(p.Spec)})
	}
	return plans
}

// Recoverable is the expected outcome of a plan: recovery covers
// exactly the master<->home request/reply legs, so faults confined
// there are repairable. Anything wider is not: forward-scope faults
// hit the home->slave leg, which the master-side retransmit cannot
// repair (the retransmitted request parks behind the wedged pending
// entry).
func Recoverable(s faults.Spec) bool { return s.Scope == faults.ScopeRequestReply }

// PlanVerdict is the outcome of one plan's sweep.
type PlanVerdict struct {
	Plan   Plan
	Report *Report
	// Watchdogs counts cases aborted by the quiescence watchdog.
	Watchdogs int
	// BudgetAborts counts cases stopped by the event budget (livelock
	// under an unrecoverable plan; a contract violation for a
	// recoverable one).
	BudgetAborts int
	// Completed counts cases that ran to completion.
	Completed int
	// DigestMismatch names the first case whose digest differed
	// between parallel and sequential execution ("" = none).
	DigestMismatch string
	// Problems lists contract violations (empty = plan passed).
	Problems []string
}

// Failed reports whether the plan violated its contract.
func (v *PlanVerdict) Failed() bool { return len(v.Problems) > 0 }

// ChaosOptions parameterizes a chaos sweep.
type ChaosOptions struct {
	// Fuzz is the base matrix each plan runs over (Fault is overwritten
	// per plan).
	Fuzz Options
	// Plans is the fault-plan grid (nil = DefaultPlans).
	Plans []Plan
	// CheckParallel re-runs each recoverable plan sequentially and
	// compares per-case digests against the parallel sweep.
	CheckParallel bool
}

// DefaultChaosBudget is the per-case event ceiling chaos sweeps apply
// when the caller sets none: far beyond any completing smoke case, and
// what bounds a nack-protocol livelock to roughly a second of wall
// time.
const DefaultChaosBudget = 10_000_000

// RunChaos executes the fuzz matrix under every plan and judges each
// against its contract. It stops at the first plan whose options Run
// refuses and returns that error.
func RunChaos(o ChaosOptions) (*ChaosReport, error) {
	plans := o.Plans
	if plans == nil {
		plans = DefaultPlans()
	}
	if o.Fuzz.MaxEvents == 0 {
		o.Fuzz.MaxEvents = DefaultChaosBudget
	}
	rep := &ChaosReport{}
	for _, plan := range plans {
		v, err := runPlan(o, plan)
		if err != nil {
			return nil, err
		}
		rep.Verdicts = append(rep.Verdicts, v)
	}
	return rep, nil
}

func runPlan(o ChaosOptions, plan Plan) (*PlanVerdict, error) {
	v := &PlanVerdict{Plan: plan}
	fo := o.Fuzz
	fo.Fault = plan.Spec
	var err error
	if v.Report, err = Run(fo); err != nil {
		return nil, err
	}
	for _, res := range v.Report.Results {
		switch {
		case res.Watchdog:
			v.Watchdogs++
			if !strings.Contains(res.Panic, "never finished") {
				v.Problems = append(v.Problems,
					fmt.Sprintf("%v: watchdog abort without diagnosis: %s", res.Case, res.Panic))
			}
		case strings.Contains(res.Panic, "event budget"):
			v.BudgetAborts++
			if plan.ExpectRecover {
				v.Problems = append(v.Problems,
					fmt.Sprintf("%v: recoverable plan exceeded the event budget: %s", res.Case, res.Panic))
			}
		case res.Failed():
			v.Problems = append(v.Problems, fmt.Sprintf("%v: %s", res.Case, failReason(res)))
		default:
			v.Completed++
		}
	}
	if plan.ExpectRecover {
		if v.Watchdogs > 0 {
			v.Problems = append(v.Problems,
				fmt.Sprintf("recoverable plan tripped the watchdog on %d cases", v.Watchdogs))
		}
		if o.CheckParallel {
			seq := fo
			seq.Parallel = 1
			sr, err := Run(seq)
			if err != nil {
				return nil, err
			}
			for i, res := range v.Report.Results {
				if res.Digest != sr.Results[i].Digest {
					v.DigestMismatch = res.Case.String()
					v.Problems = append(v.Problems, fmt.Sprintf(
						"%v: parallel digest %s != sequential %s",
						res.Case, res.Digest, sr.Results[i].Digest))
					break
				}
			}
		}
	} else if v.Watchdogs == 0 && v.BudgetAborts == 0 {
		v.Problems = append(v.Problems,
			"unrecoverable plan: no case tripped the watchdog or the event budget (placebo)")
	}
	return v, nil
}

func failReason(res *Result) string {
	switch {
	case res.Panic != "":
		return "panic: " + res.Panic
	case res.ValidateErr != "":
		return "validate: " + res.ValidateErr
	default:
		return fmt.Sprintf("%d oracle violations", res.TotalViolations)
	}
}

// ChaosReport is the outcome of a chaos sweep.
type ChaosReport struct {
	Verdicts []*PlanVerdict
}

// Failed reports whether any plan violated its contract.
func (r *ChaosReport) Failed() bool {
	for _, v := range r.Verdicts {
		if v.Failed() {
			return true
		}
	}
	return false
}

// String renders the deterministic verdict table, with the first
// watchdog diagnosis per unrecoverable plan (proof it is actionable).
func (r *ChaosReport) String() string {
	var b strings.Builder
	for _, v := range r.Verdicts {
		status := "ok  "
		if v.Failed() {
			status = "FAIL"
		}
		expect := "recover"
		if !v.Plan.ExpectRecover {
			expect = "watchdog"
		}
		fmt.Fprintf(&b, "%s plan %-14s [%s] %v: %d completed, %d watchdog-aborted, %d budget-aborted\n",
			status, v.Plan.Name, expect, v.Plan.Spec, v.Completed, v.Watchdogs, v.BudgetAborts)
		for _, p := range v.Problems {
			fmt.Fprintf(&b, "     problem: %s\n", p)
		}
		// Print the first stuck-state diagnosis whenever the watchdog
		// fired: for an unrecoverable plan it is proof the abort is
		// actionable, for a failed recoverable plan it is the evidence
		// of what wedged.
		if v.Watchdogs > 0 {
			for _, res := range v.Report.Results {
				if res.Watchdog {
					fmt.Fprintf(&b, "     first diagnosis (%v):\n", res.Case)
					for _, line := range strings.Split(strings.TrimRight(res.Panic, "\n"), "\n") {
						fmt.Fprintf(&b, "       %s\n", line)
					}
					break
				}
			}
		}
	}
	if r.Failed() {
		b.WriteString("chaos: FAILED\n")
	} else {
		b.WriteString("chaos: all plans met their contracts\n")
	}
	return b.String()
}
