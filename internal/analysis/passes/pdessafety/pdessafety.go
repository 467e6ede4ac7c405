// Package pdessafety guards the parallel-DES contract around
// runner.Map / runner.MapEach: worker closures run on concurrent
// goroutines in scheduler order, so a sweep's output is reproducible
// only if workers communicate exclusively through their return values
// (merged in run-index order — ordered side effects belong in
// MapEach's each callback, which the runner serializes).
//
// The analyzer generalizes the one-off captured-write closure check
// that previously lived in the determinism pass into the reusable
// guarantee parallel sweeps need. At every runner.Map/MapEach
// call site, in every package, it flags:
//
//   - writes to variables captured from the enclosing scope inside the
//     worker closure (including writes through captured pointers,
//     slices, maps and struct fields) — at best a data race, at worst
//     a silent source of completion-order-dependent results
//   - writes to package-level state reachable from the worker, through
//     any chain of static calls across any number of packages; a
//     read-modify-write (x++, x += v) is additionally called out as
//     non-atomic, the racy-counter shape
//
// The reachability side rides the module call graph: a
// "writes package-level state" fact is propagated bottom-up over SCCs,
// and worker closures (or named functions passed as workers) whose
// static call tree reaches such a write are flagged with the full
// chain. Atomic counters (sync/atomic values or Add/Store calls) are
// method/function calls, not assignments, and are naturally exempt —
// which is exactly the discipline serve.Pool's counters follow.
package pdessafety

import (
	"go/ast"
	"go/token"
	"go/types"

	"cenju4/internal/analysis"
	"cenju4/internal/analysis/lintutil"
)

// Analyzer is the pdessafety pass.
var Analyzer = &analysis.Analyzer{
	Name: "pdessafety",
	Doc: "runner.Map/MapEach workers must not write captured variables " +
		"or reach package-level state writes (call-graph facts)",
	Run: run,
}

// runnerPath is the worker-pool package whose Map/MapEach worker
// closures the analyzer guards.
const runnerPath = "cenju4/internal/runner"

const factGlobalWrite = "pdessafety.globalwrite"

func run(pass *analysis.Pass) error {
	facts := moduleFacts(pass.Program)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := lintutil.PkgFunc(pass.TypesInfo, call, runnerPath)
			if !ok || (name != "Map" && name != "MapEach") || len(call.Args) < 3 {
				return true
			}
			checkWorker(pass, facts, name, call.Args[2])
			return true
		})
	}
	return nil
}

// moduleFacts computes (once per program) which module functions
// directly or transitively write package-level state.
func moduleFacts(prog *analysis.Program) analysis.FactMap {
	return prog.Cached("pdessafety.facts", func() any {
		return prog.CallGraph.Propagate(func(n *analysis.CGNode) []analysis.Fact {
			var facts []analysis.Fact
			record := func(lhs ast.Expr, rmw bool) {
				id := lintutil.RootIdent(lhs)
				if id == nil || id.Name == "_" {
					return
				}
				obj := n.Pkg.TypesInfo.ObjectOf(id)
				if obj == nil || !lintutil.PackageLevelVar(obj) {
					return
				}
				desc := "writes package-level " + id.Name
				if rmw {
					desc = "non-atomic read-modify-write of package-level " + id.Name
				}
				facts = append(facts, analysis.Fact{Kind: factGlobalWrite, Desc: desc, Pos: lhs.Pos()})
			}
			ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
				switch node := node.(type) {
				case *ast.AssignStmt:
					rmw := node.Tok != token.ASSIGN && node.Tok != token.DEFINE
					for _, lhs := range node.Lhs {
						record(lhs, rmw)
					}
				case *ast.IncDecStmt:
					record(node.X, true)
				}
				return true
			})
			return facts
		})
	}).(analysis.FactMap)
}

// checkWorker inspects the worker argument of a runner.Map/MapEach
// call: a func literal is checked for captured writes and tainted
// callees; a named function or method value is checked against the
// fact map directly.
func checkWorker(pass *analysis.Pass, facts analysis.FactMap, fn string, arg ast.Expr) {
	switch worker := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		checkCapturedWrites(pass, fn, worker)
		checkCallees(pass, facts, fn, worker)
	default:
		if callee := workerFunc(pass.TypesInfo, arg); callee != nil {
			if facts.Lookup(callee, factGlobalWrite) != nil {
				pass.Reportf(arg.Pos(),
					"worker %s passed to runner.%s transitively writes package-level state: %s; workers run on concurrent goroutines and must communicate only through their return value",
					analysis.DisplayName(callee), fn,
					pass.Program.FactChain(facts, callee, factGlobalWrite))
			}
		}
	}
}

// workerFunc resolves a named function or method value passed as the
// worker argument.
func workerFunc(info *types.Info, arg ast.Expr) *types.Func {
	switch e := ast.Unparen(arg).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[e].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[e.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// checkCallees flags calls from the worker closure into module
// functions that transitively write package-level state.
func checkCallees(pass *analysis.Pass, facts analysis.FactMap, fn string, fl *ast.FuncLit) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := analysis.StaticCallee(pass.TypesInfo, call)
		if callee == nil || facts.Lookup(callee, factGlobalWrite) == nil {
			return true
		}
		pass.Reportf(call.Pos(),
			"worker closure passed to runner.%s calls %s, which transitively writes package-level state: %s; workers run on concurrent goroutines and must communicate only through their return value",
			fn, analysis.DisplayName(callee),
			pass.Program.FactChain(facts, callee, factGlobalWrite))
		return true
	})
}

// checkCapturedWrites flags writes to variables declared outside the
// worker literal. Unwrapping to the root identifier catches writes
// through captured slices, maps, pointers and struct fields
// (results[i] = v, *out = v, s.n++), while variables the worker
// declares itself — including writes from closures nested inside it,
// like engine callbacks — stay allowed.
func checkCapturedWrites(pass *analysis.Pass, fn string, fl *ast.FuncLit) {
	check := func(lhs ast.Expr) {
		id := lintutil.RootIdent(lhs)
		if id == nil || id.Name == "_" {
			return
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			return
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return
		}
		if obj.Pos() >= fl.Pos() && obj.Pos() <= fl.End() {
			return // declared inside the worker closure
		}
		if lintutil.PackageLevelVar(obj) {
			pass.Reportf(lhs.Pos(),
				"worker closure passed to runner.%s writes package-level variable %s (shared across workers): workers must communicate only through their return value (ordered side effects go in MapEach's each callback)",
				fn, id.Name)
			return
		}
		pass.Reportf(lhs.Pos(),
			"worker closure passed to runner.%s writes captured variable %s: workers run on concurrent goroutines and must communicate only through their return value (ordered side effects go in MapEach's each callback)",
			fn, id.Name)
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(n.X)
		}
		return true
	})
}
