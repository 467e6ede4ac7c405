package experiments

import (
	"fmt"
	"strings"

	"cenju4/internal/npb"
	"cenju4/internal/runner"
	"cenju4/internal/sim"
)

// FutureWorkPoint compares CG at one machine size with and without the
// update-protocol extension.
type FutureWorkPoint struct {
	Nodes          int
	BaseTime       sim.Time
	BaseSpeedup    float64
	UpdateTime     sim.Time
	UpdateSpeedup  float64
	L3Hits         uint64
	UpdateWrites   uint64
	RemoteMissBase float64 // remote misses / accesses, baseline
	RemoteMissUpd  float64
}

// FutureWorkResult is the paper's Section 4.2.3 proposal, implemented
// and measured: "use the main memory as third-level cache and ... an
// update-type protocol for this type of data", so CG's whole-vector
// re-reads are satisfied locally.
type FutureWorkResult struct {
	Points []FutureWorkPoint
}

// FutureWork runs CG dsm(2) (with data mappings) across machine sizes,
// with the shared vector under the invalidate protocol (baseline) and
// under the update-protocol extension.
func FutureWork(cfg Config) FutureWorkResult {
	cfg = cfg.withDefaults()
	type job struct {
		nodes  int
		update bool
	}
	var jobs []job
	for _, nodes := range []int{16, 64, 128} {
		jobs = append(jobs, job{nodes, false}, job{nodes, true})
	}
	// Run 0 is the sequential CG baseline; runs 1.. are the jobs above.
	runs, panics := runner.Map(cfg.parOpts(), len(jobs)+1, func(i int) appRun {
		if i == 0 {
			return appJob{npb.CG, npb.Seq, 1, false}.run(cfg)
		}
		j := jobs[i-1]
		s := appJob{npb.CG, npb.DSM2, j.nodes, true}.spec(cfg)
		s.UpdateProtocol = j.update
		return runOne(cfg, s, fmt.Sprintf("CG/dsm(2) nodes=%d update=%t", j.nodes, j.update))
	})
	rethrow(panics)
	for _, run := range runs {
		cfg.Observe.absorb(run.obs)
	}
	seq := runs[0].result.Time
	var res FutureWorkResult
	for i := 0; i < len(jobs); i += 2 {
		nodes := jobs[i].nodes
		base, upd := runs[1+i].result, runs[2+i].result
		var l3, uw uint64
		for _, s := range upd.Protocol {
			l3 += s.L3Hits
			uw += s.UpdateWrites
		}
		bt, ut := base.Totals(), upd.Totals()
		res.Points = append(res.Points, FutureWorkPoint{
			Nodes:          nodes,
			BaseTime:       base.Time,
			BaseSpeedup:    float64(seq) / float64(base.Time),
			UpdateTime:     upd.Time,
			UpdateSpeedup:  float64(seq) / float64(upd.Time),
			L3Hits:         l3,
			UpdateWrites:   uw,
			RemoteMissBase: float64(bt.RemoteMisses) / float64(bt.MemAccesses),
			RemoteMissUpd:  float64(ut.RemoteMisses) / float64(ut.MemAccesses),
		})
	}
	return res
}

// Render prints the comparison.
func (r FutureWorkResult) Render() string {
	var b strings.Builder
	b.WriteString("Future-work extension: CG dsm(2) with the update-type protocol + memory L3\n")
	t := &table{header: []string{"nodes", "base time", "base speedup", "update time", "update speedup", "L3 hits", "update writes", "remote miss/acc base->upd"}}
	for _, p := range r.Points {
		t.add(fmt.Sprintf("%d", p.Nodes),
			us(p.BaseTime), fmt.Sprintf("%.1fx", p.BaseSpeedup),
			us(p.UpdateTime), fmt.Sprintf("%.1fx", p.UpdateSpeedup),
			fmt.Sprintf("%d", p.L3Hits), fmt.Sprintf("%d", p.UpdateWrites),
			fmt.Sprintf("%s -> %s", pct(p.RemoteMissBase), pct(p.RemoteMissUpd)))
	}
	b.WriteString(t.String())
	b.WriteString("\nThe update protocol converts CG's constant per-node remote re-fetch of the\nshared vector into local third-level-cache hits, lifting the saturation the\npaper diagnoses in Section 4.2.3.\n")
	return b.String()
}

// Gain returns the update/base speedup ratio at the largest size.
func (r FutureWorkResult) Gain() float64 {
	if len(r.Points) == 0 {
		return 0
	}
	p := r.Points[len(r.Points)-1]
	return p.UpdateSpeedup / p.BaseSpeedup
}
