// Package determinism enforces the simulator's bit-reproducibility
// contract inside the simulation packages (core, sim, machine,
// network, directory, npb, metrics, trace): the same seed must replay
// byte-identically (the fuzzer's shrinking and -replay flows depend on
// it).
//
// Three sources of run-to-run variation are banned there:
//
//   - ranging over a map, whose iteration order is randomized by the
//     runtime and can leak into event order or rendered output; loops
//     that are provably order-insensitive may carry a
//     "cenju4:order-insensitive" comment on or directly above the
//     range statement
//   - wall-clock reads (time.Now, time.Since, ...), which make event
//     timing depend on the host
//   - the global math/rand source (rand.Intn, rand.Shuffle, ...),
//     which is shared, lockable and seeded per-process; randomness
//     must flow through an explicitly seeded *rand.Rand so a seed in
//     a flag or config reproduces the stream
//
// The checks are interprocedural: besides the direct syntactic rules,
// the analyzer propagates "ranges a map" / "reads the wall clock" /
// "uses global math/rand" facts bottom-up over the module call graph
// (SCCs of mutually recursive helpers included), and flags any call
// from a simulation package into a helper — in any other package —
// that transitively reaches a violation. The diagnostic carries the
// full call chain down to the leaf, so a sim package cannot launder a
// time.Now through an innocent-looking utility. Violations whose leaf
// lives inside another simulation package are not re-reported at the
// call site: they are already flagged at the leaf (or at that
// package's own exit-boundary call).
//
// The worker-closure rule that historically lived here (no captured
// writes in runner.Map closures) moved to the workersafety analyzer,
// which generalizes it interprocedurally.
package determinism

import (
	"go/ast"
	"go/types"

	"cenju4/internal/analysis"
	"cenju4/internal/analysis/lintutil"
)

// Directive suppresses the map-range rule for one statement — at the
// leaf: a helper package's order-insensitive range must carry the
// directive itself, which then also silences transitive reports at
// every simulation-package caller.
const Directive = "cenju4:order-insensitive"

// Analyzer is the determinism pass.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "simulation packages must not range over maps, read the wall " +
		"clock, or use the global math/rand source — directly or " +
		"through helpers in other packages (call-graph facts)",
	Run: run,
}

// Fact kinds propagated over the call graph.
const (
	factMapRange   = "determinism.maprange"
	factWallClock  = "determinism.wallclock"
	factGlobalRand = "determinism.globalrand"
)

// factKinds orders the kinds for deterministic reporting.
var factKinds = []string{factMapRange, factWallClock, factGlobalRand}

// seededRandOK lists the math/rand package functions that construct an
// explicitly seeded generator rather than touching the global source.
var seededRandOK = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func run(pass *analysis.Pass) error {
	if !lintutil.SimPackages[pass.Pkg.Path()] {
		return nil
	}
	facts := moduleFacts(pass.Program)
	for _, f := range pass.Files {
		suppressed := lintutil.SuppressedLines(pass.Fset, f, Directive)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkRange(pass, n, suppressed)
			case *ast.CallExpr:
				checkCall(pass, n)
				checkTransitive(pass, facts, n)
			}
			return true
		})
	}
	return nil
}

// moduleFacts computes (once per program) which module functions
// directly or transitively range a map, read the wall clock, or touch
// the global rand source. Local extraction applies the suppression
// directive at the leaf, so an order-insensitive helper range never
// becomes a fact.
func moduleFacts(prog *analysis.Program) analysis.FactMap {
	return prog.Cached("determinism.facts", func() any {
		return prog.CallGraph.Propagate(localFacts)
	}).(analysis.FactMap)
}

func localFacts(n *analysis.CGNode) []analysis.Fact {
	file := n.Pkg.FileOf(n.Decl.Pos())
	var suppressed map[int]bool
	if file != nil {
		suppressed = lintutil.SuppressedLines(n.Pkg.Fset, file, Directive)
	}
	var facts []analysis.Fact
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.RangeStmt:
			tv, ok := n.Pkg.TypesInfo.Types[node.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if suppressed[n.Pkg.Fset.Position(node.For).Line] {
				return true
			}
			facts = append(facts, analysis.Fact{
				Kind: factMapRange,
				Desc: "ranges over map " + types.ExprString(node.X),
				Pos:  node.For,
			})
		case *ast.CallExpr:
			if name, ok := lintutil.PkgFunc(n.Pkg.TypesInfo, node, "time"); ok && lintutil.WallClock[name] {
				facts = append(facts, analysis.Fact{
					Kind: factWallClock,
					Desc: "calls time." + name,
					Pos:  node.Pos(),
				})
			}
			if name, ok := lintutil.PkgFunc(n.Pkg.TypesInfo, node, "math/rand"); ok && !seededRandOK[name] {
				facts = append(facts, analysis.Fact{
					Kind: factGlobalRand,
					Desc: "calls rand." + name,
					Pos:  node.Pos(),
				})
			}
		}
		return true
	})
	return facts
}

func checkRange(pass *analysis.Pass, rs *ast.RangeStmt, suppressed map[int]bool) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if suppressed[pass.Fset.Position(rs.For).Line] {
		return
	}
	pass.Reportf(rs.For,
		"range over map %s in a simulation package: iteration order is randomized and can reach event order; iterate sorted keys or mark the loop %q",
		types.ExprString(rs.X), Directive)
}

// checkCall flags direct violations: wall-clock and global-rand calls
// written in the simulation package itself.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	if name, ok := lintutil.PkgFunc(pass.TypesInfo, call, "time"); ok && lintutil.WallClock[name] {
		pass.Reportf(call.Pos(),
			"time.%s reads the wall clock in a simulation package; use sim.Engine virtual time", name)
	}
	if name, ok := lintutil.PkgFunc(pass.TypesInfo, call, "math/rand"); ok && !seededRandOK[name] {
		pass.Reportf(call.Pos(),
			"rand.%s uses the global math/rand source; draw from an explicitly seeded *rand.Rand plumbed from flags or config", name)
	}
}

// checkTransitive flags calls from a simulation package into a module
// function outside the simulation scope that transitively reaches a
// banned construct, reporting the full call chain. Callees inside the
// simulation scope are skipped: their violations are reported at the
// leaf (or at their own exit-boundary call), so every problem surfaces
// exactly once.
func checkTransitive(pass *analysis.Pass, facts analysis.FactMap, call *ast.CallExpr) {
	callee := analysis.StaticCallee(pass.TypesInfo, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	if lintutil.SimPackages[callee.Pkg().Path()] || callee.Pkg().Path() == pass.Pkg.Path() {
		return
	}
	remedy := map[string]string{
		factMapRange:   "iterate sorted keys at the leaf or mark its loop \"" + Directive + "\"",
		factWallClock:  "thread sim virtual time through instead",
		factGlobalRand: "plumb an explicitly seeded *rand.Rand through instead",
	}
	noun := map[string]string{
		factMapRange:   "ranges over a map",
		factWallClock:  "reads the wall clock",
		factGlobalRand: "uses the global math/rand source",
	}
	for _, kind := range factKinds {
		if facts.Lookup(callee, kind) == nil {
			continue
		}
		pass.Reportf(call.Pos(),
			"call from a simulation package to %s, which transitively %s: %s; %s",
			analysis.DisplayName(callee), noun[kind],
			pass.Program.FactChain(facts, callee, kind), remedy[kind])
	}
}
