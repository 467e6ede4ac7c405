package experiments

import (
	"context"
	"fmt"
	"strings"

	"cenju4/internal/machine"
	"cenju4/internal/npb"
	"cenju4/internal/runner"
	"cenju4/internal/sim"
	"cenju4/internal/spec"
)

// paperNodes returns the machine size the paper uses for an application
// in Figures 11/12 and Tables 3/4: BT and SP on 64 nodes, CG and FT on
// 128.
func paperNodes(app npb.App) int {
	if app == npb.BT || app == npb.SP {
		return 64
	}
	return 128
}

// appRun is one measured application execution.
type appRun struct {
	meta   npb.Meta
	result machine.Result
	obs    *runObservation
}

// runOne executes one run description through spec.Run, whose
// coherence check it turns into a panic like every other failed run;
// label names the run's trace stream.
func runOne(cfg Config, s spec.Spec, label string) appRun {
	col := cfg.collector()
	out, err := s.Run(context.Background(), col, 0)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", label, err))
	}
	return appRun{meta: out.Meta, result: out.Result, obs: cfg.observe(out.Machine, col, label)}
}

// appJob names one application run of a sweep: the job lists are pure
// data so the whole sweep can shard across the worker pool.
type appJob struct {
	app    npb.App
	v      npb.Variant
	nodes  int
	mapped bool
}

// spec is j's run description under cfg's problem size and fault plan.
func (j appJob) spec(cfg Config) spec.Spec {
	return spec.Spec{
		App:        j.app.String(),
		Variant:    j.v.String(),
		Nodes:      j.nodes,
		NoMapping:  !j.mapped,
		Iterations: cfg.Iterations,
		Scale:      cfg.Scale,
		Fault:      cfg.Fault.String(),
	}
}

// run executes j under its trace label.
func (j appJob) run(cfg Config) appRun {
	return runOne(cfg, j.spec(cfg), fmt.Sprintf("%v/%v nodes=%d", j.app, j.v, j.nodes))
}

// runJobs executes the jobs across cfg.Parallel workers (each run
// builds its own machine) and returns the results in job order.
func runJobs(cfg Config, jobs []appJob) []appRun {
	runs, panics := runner.Map(cfg.parOpts(), len(jobs), func(i int) appRun {
		return jobs[i].run(cfg)
	})
	rethrow(panics)
	for _, run := range runs {
		cfg.Observe.absorb(run.obs)
	}
	return runs
}

// appVariants is the program set of Figure 11 (Table 3 uses the dsm
// tail, appVariants[1:]), in presentation order.
var appVariants = []struct {
	v      npb.Variant
	mapped bool
}{{npb.MPI, false}, {npb.DSM1, false}, {npb.DSM1, true}, {npb.DSM2, false}, {npb.DSM2, true}}

// efficiency is speedup divided by node count.
func efficiency(seq sim.Time, r machine.Result, nodes int) float64 {
	return float64(seq) / (float64(nodes) * float64(r.Time))
}

// ---------------------------------------------------------------------
// Figure 11: DSM vs message passing.

// Figure11Entry is one bar of Figure 11.
type Figure11Entry struct {
	App          npb.App
	Variant      npb.Variant
	Mapped       bool
	RewriteRatio float64 // panel (a)
	Efficiency   float64 // panel (b)
	Nodes        int
}

// Figure11Result holds both panels.
type Figure11Result struct {
	Entries []Figure11Entry
	// PaperEfficiency holds the efficiencies the paper states in the
	// text for the mapped dsm programs.
	PaperEfficiency map[string]float64
}

// Figure11 measures rewriting ratio and parallel efficiency for the
// mpi, dsm(1) and dsm(2) programs of all four applications (dsm forms
// with and without data mappings).
func Figure11(cfg Config) Figure11Result {
	cfg = cfg.withDefaults()
	res := Figure11Result{PaperEfficiency: map[string]float64{
		"BT dsm(2)": 0.97, "FT dsm(2)": 0.81, "SP dsm(2)": 0.71,
		"BT dsm(1)": 0.20, "CG dsm(1)": 0.20, "SP dsm(1)": 0.20, "FT dsm(1)": 0.40,
	}}
	var jobs []appJob
	for _, app := range npb.Apps() {
		jobs = append(jobs, appJob{app, npb.Seq, 1, false})
		for _, c := range appVariants {
			jobs = append(jobs, appJob{app, c.v, paperNodes(app), c.mapped})
		}
	}
	runs := runJobs(cfg, jobs)
	for i := 0; i < len(runs); {
		nodes := paperNodes(jobs[i].app)
		seq := runs[i].result.Time // the npb.Seq baseline leads each group
		i++
		for range appVariants {
			j, run := jobs[i], runs[i]
			i++
			res.Entries = append(res.Entries, Figure11Entry{
				App:          j.app,
				Variant:      j.v,
				Mapped:       j.mapped,
				RewriteRatio: run.meta.RewriteRatio,
				Efficiency:   efficiency(seq, run.result, nodes),
				Nodes:        nodes,
			})
		}
	}
	return res
}

// Find returns the entry for (app, variant, mapped).
func (r Figure11Result) Find(app npb.App, v npb.Variant, mapped bool) (Figure11Entry, bool) {
	for _, e := range r.Entries {
		if e.App == app && e.Variant == v && e.Mapped == mapped {
			return e, true
		}
	}
	return Figure11Entry{}, false
}

// Render prints both panels.
func (r Figure11Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 11(a): program rewriting ratio\n")
	ta := &table{header: []string{"app", "mpi", "dsm(1)", "dsm(1)+map", "dsm(2)", "dsm(2)+map"}}
	tb := &table{header: []string{"app", "nodes", "mpi", "dsm(1) no-map", "dsm(1)", "dsm(2) no-map", "dsm(2)", "paper dsm(2)"}}
	for _, app := range npb.Apps() {
		row := []string{app.String()}
		for _, c := range appVariants {
			if e, ok := r.Find(app, c.v, c.mapped); ok {
				row = append(row, pct(e.RewriteRatio))
			}
		}
		ta.add(row...)

		row = []string{app.String()}
		var nodes int
		for _, c := range appVariants {
			if e, ok := r.Find(app, c.v, c.mapped); ok {
				if nodes == 0 {
					nodes = e.Nodes
					row = append(row, fmt.Sprintf("%d", nodes))
				}
				row = append(row, pct(e.Efficiency))
			}
		}
		paper := "-"
		if v, ok := r.PaperEfficiency[app.String()+" dsm(2)"]; ok {
			paper = pct(v)
		}
		row = append(row, paper)
		tb.add(row...)
	}
	b.WriteString(ta.String())
	b.WriteString("\nFigure 11(b): parallel efficiency\n")
	b.WriteString(tb.String())
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 12: speedups of the dsm(2) programs.

// Figure12Series is one application's speedup curve.
type Figure12Series struct {
	App      npb.App
	Nodes    []int
	Speedups []float64
}

// Figure12Result holds the four curves.
type Figure12Result struct {
	Series []Figure12Series
}

// Figure12 sweeps the dsm(2) programs (with data mappings) over machine
// sizes: up to 64 nodes for BT and SP, up to 128 for CG and FT.
func Figure12(cfg Config) Figure12Result {
	cfg = cfg.withDefaults()
	var res Figure12Result
	var jobs []appJob
	for _, app := range npb.Apps() {
		jobs = append(jobs, appJob{app, npb.Seq, 1, false})
		for _, n := range figure12Counts(app) {
			jobs = append(jobs, appJob{app, npb.DSM2, n, true})
		}
	}
	runs := runJobs(cfg, jobs)
	i := 0
	for _, app := range npb.Apps() {
		seq := runs[i].result.Time
		i++
		s := Figure12Series{App: app}
		for _, n := range figure12Counts(app) {
			s.Nodes = append(s.Nodes, n)
			s.Speedups = append(s.Speedups, float64(seq)/float64(runs[i].result.Time))
			i++
		}
		res.Series = append(res.Series, s)
	}
	return res
}

// figure12Counts returns the machine sizes swept for an application:
// up to its paper size.
func figure12Counts(app npb.App) []int {
	counts := []int{4, 16, 64}
	if paperNodes(app) == 128 {
		counts = append(counts, 128)
	}
	return counts
}

// Find returns the series for app.
func (r Figure12Result) Find(app npb.App) (Figure12Series, bool) {
	for _, s := range r.Series {
		if s.App == app {
			return s, true
		}
	}
	return Figure12Series{}, false
}

// Render prints the curves.
func (r Figure12Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 12: speedups of dsm(2) applications (with data mappings)\n")
	t := &table{header: []string{"app", "nodes", "speedup", "efficiency"}}
	for _, s := range r.Series {
		for i := range s.Nodes {
			t.add(s.App.String(), fmt.Sprintf("%d", s.Nodes[i]),
				fmt.Sprintf("%.1fx", s.Speedups[i]),
				pct(s.Speedups[i]/float64(s.Nodes[i])))
		}
	}
	b.WriteString(t.String())
	b.WriteString("\nCG's curve saturates (its per-node remote re-fetch of the shared\nvector is constant while per-node work shrinks); BT, FT and SP keep scaling.\n")
	return b.String()
}

// ---------------------------------------------------------------------
// Table 3: secondary cache miss characteristics.

// Table3Row is one row: an application/variant/mapping combination.
type Table3Row struct {
	App       npb.App
	Variant   npb.Variant
	Mapped    bool
	Nodes     int
	MissRatio float64
	// Private, Local, Remote are fractions of all misses.
	Private, Local, Remote float64
}

// Table3Result holds all rows.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 measures miss ratios and breakdowns for dsm(1) and dsm(2) with
// and without data mappings.
func Table3(cfg Config) Table3Result {
	cfg = cfg.withDefaults()
	var res Table3Result
	var jobs []appJob
	for _, app := range npb.Apps() {
		for _, c := range appVariants[1:] { // the four dsm programs
			jobs = append(jobs, appJob{app, c.v, paperNodes(app), c.mapped})
		}
	}
	runs := runJobs(cfg, jobs)
	for i, run := range runs {
		j := jobs[i]
		tot := run.result.Totals()
		private, local, remote := spec.MissShares(tot)
		res.Rows = append(res.Rows, Table3Row{
			App:       j.app,
			Variant:   j.v,
			Mapped:    j.mapped,
			Nodes:     j.nodes,
			MissRatio: tot.MissRatio(),
			Private:   private,
			Local:     local,
			Remote:    remote,
		})
	}
	return res
}

// Find returns the row for (app, variant, mapped).
func (r Table3Result) Find(app npb.App, v npb.Variant, mapped bool) (Table3Row, bool) {
	for _, row := range r.Rows {
		if row.App == app && row.Variant == v && row.Mapped == mapped {
			return row, true
		}
	}
	return Table3Row{}, false
}

// Render prints the table.
func (r Table3Result) Render() string {
	t := &table{header: []string{"app(nodes)", "program", "miss ratio", "private", "local", "remote"}}
	for _, row := range r.Rows {
		name := row.Variant.String()
		if !row.Mapped {
			name += " (no mappings)"
		}
		t.add(fmt.Sprintf("%v(%d)", row.App, row.Nodes), name,
			pct(row.MissRatio), pct(row.Private), pct(row.Local), pct(row.Remote))
	}
	return "Table 3: secondary cache miss characteristics\n" + t.String()
}

// ---------------------------------------------------------------------
// Table 4: application characteristics at two machine sizes.

// Table4Row is one (app, nodes) row of Table 4, for the dsm(2) mapped
// programs.
type Table4Row struct {
	App   npb.App
	Nodes int
	// ExecTime is the measured makespan.
	ExecTime sim.Time
	// SyncFrac is synchronization time / total time (averaged over
	// nodes). The paper's "system" column (OS overhead) is not modeled.
	SyncFrac float64
	// Instructions and MemAccesses are machine totals.
	Instructions uint64
	MemAccesses  uint64
	// Access breakdown (fractions of memory accesses).
	AccPrivate, AccLocal, AccRemote float64
	// MissRatio and miss breakdown.
	MissRatio                          float64
	MissPrivate, MissLocal, MissRemote float64
}

// Table4Result holds the rows.
type Table4Result struct {
	Rows []Table4Row
}

// Table4 measures the dsm(2) programs at 16 nodes and at the paper's
// large size (64 for BT/SP, 128 for CG/FT).
func Table4(cfg Config) Table4Result {
	cfg = cfg.withDefaults()
	var res Table4Result
	var jobs []appJob
	for _, app := range npb.Apps() {
		for _, nodes := range []int{16, paperNodes(app)} {
			jobs = append(jobs, appJob{app, npb.DSM2, nodes, true})
		}
	}
	runs := runJobs(cfg, jobs)
	for i, run := range runs {
		j := jobs[i]
		tot := run.result.Totals()
		acc := float64(tot.MemAccesses)
		if acc == 0 {
			acc = 1
		}
		private, local, remote := spec.MissShares(tot)
		res.Rows = append(res.Rows, Table4Row{
			App:          j.app,
			Nodes:        j.nodes,
			ExecTime:     run.result.Time,
			SyncFrac:     spec.SyncFraction(run.result),
			Instructions: tot.Instructions,
			MemAccesses:  tot.MemAccesses,
			AccPrivate:   float64(tot.PrivateAccesses) / acc,
			AccLocal:     float64(tot.LocalAccesses) / acc,
			AccRemote:    float64(tot.RemoteAccesses) / acc,
			MissRatio:    tot.MissRatio(),
			MissPrivate:  private,
			MissLocal:    local,
			MissRemote:   remote,
		})
	}
	return res
}

// Find returns the row for (app, nodes).
func (r Table4Result) Find(app npb.App, nodes int) (Table4Row, bool) {
	for _, row := range r.Rows {
		if row.App == app && row.Nodes == nodes {
			return row, true
		}
	}
	return Table4Row{}, false
}

// Render prints the table.
func (r Table4Result) Render() string {
	t := &table{header: []string{
		"app", "nodes", "time", "sync", "instr(1e6)", "mem(1e6)",
		"acc p/l/r", "miss ratio", "miss p/l/r"}}
	for _, row := range r.Rows {
		t.add(row.App.String(), fmt.Sprintf("%d", row.Nodes),
			fmt.Sprintf("%.3fms", float64(row.ExecTime)/1e6),
			pct(row.SyncFrac),
			fmt.Sprintf("%.2f", float64(row.Instructions)/1e6),
			fmt.Sprintf("%.2f", float64(row.MemAccesses)/1e6),
			fmt.Sprintf("%.0f/%.0f/%.0f%%", 100*row.AccPrivate, 100*row.AccLocal, 100*row.AccRemote),
			pct(row.MissRatio),
			fmt.Sprintf("%.0f/%.0f/%.0f%%", 100*row.MissPrivate, 100*row.MissLocal, 100*row.MissRemote))
	}
	return "Table 4: characteristics of applications (dsm(2), data mappings; system time not modeled)\n" + t.String()
}
