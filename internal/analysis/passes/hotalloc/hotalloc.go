// Package hotalloc enforces the event kernel's allocation discipline:
// a function marked with a "//cenju4:hotpath" comment (on or directly
// above its declaration) runs per simulated event or per message hop,
// and the ROADMAP throughput target (≥10M protocol messages/sec) dies
// by a thousand cuts if such code — or anything it statically calls,
// in any package — allocates per invocation.
//
// The analyzer computes the set of module functions reachable from the
// hotpath roots over the module call graph and flags, inside each
// reachable function, the allocation sites the Go compiler cannot
// elide:
//
//   - composite literals that escape: &T{...}, new(T), and slice/map
//     literals ([]T{...} always heap-allocates its backing array)
//   - make of a slice, map or channel
//   - append growth without preallocation: append whose destination is
//     a function-local slice never created by a capacity-carrying
//     make(T, len, cap) in the same function. Appends that grow a
//     field, parameter or captured slice in place are allowed — those
//     amortize into the structure's standing capacity (the event pool's
//     free list, a caller-provided buffer)
//   - fmt calls, whose variadic ...any parameters box their arguments
//     (and whose formatting allocates the result)
//   - capturing closures: a func literal referencing variables of the
//     enclosing function allocates a closure object per evaluation
//
// Allocations inside the arguments of a panic call are exempt: a
// terminating failure path is not a hot path. A deliberate, amortized
// allocation (growing a pool chunk, a rare rebuild) is suppressed with
// a "//cenju4:alloc-ok" comment on or directly above the site — the
// comment should say why the cost amortizes; see DESIGN.md §6 for when
// that is acceptable.
//
// Reachability follows static calls only: closures handed to the event
// queue and interface dispatch are invisible, so handlers scheduled by
// hot code must be marked hot themselves if they matter.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"cenju4/internal/analysis"
	"cenju4/internal/analysis/lintutil"
)

// Directive marks a function declaration as a hot-path root.
const Directive = "cenju4:hotpath"

// SuppressDirective silences one allocation site (with justification).
const SuppressDirective = "cenju4:alloc-ok"

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "no per-event heap allocation in functions reachable from " +
		"//cenju4:hotpath roots (escaping literals, make, append " +
		"growth, fmt boxing, capturing closures)",
	Run: run,
}

// finding is one allocation site, precomputed module-wide and reported
// by the pass whose package owns the site.
type finding struct {
	pkgPath string
	pos     token.Pos
	msg     string
}

func run(pass *analysis.Pass) error {
	for _, f := range moduleFindings(pass.Program) {
		if f.pkgPath == pass.Pkg.Path() {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
	return nil
}

// moduleFindings computes (once per program) every allocation site in
// the hotpath-reachable set.
func moduleFindings(prog *analysis.Program) []finding {
	return prog.Cached("hotalloc.findings", func() any {
		var roots []*analysis.CGNode
		for _, n := range prog.CallGraph.Nodes() {
			if isHot(n) {
				roots = append(roots, n)
			}
		}
		parent := prog.CallGraph.ReachableFrom(roots)
		var out []finding
		for _, n := range prog.CallGraph.Nodes() { // deterministic order
			if _, ok := parent[n]; !ok {
				continue
			}
			out = append(out, checkFunc(prog, parent, n)...)
		}
		return out
	}).([]finding)
}

// isHot reports whether the node's declaration carries the hotpath
// directive on or directly above it (doc comment lines included).
func isHot(n *analysis.CGNode) bool {
	file := n.Pkg.FileOf(n.Decl.Pos())
	if file == nil {
		return false
	}
	marked := lintutil.SuppressedLines(n.Pkg.Fset, file, Directive)
	return marked[n.Pkg.Fset.Position(n.Decl.Pos()).Line]
}

// checkFunc scans one reachable function for allocation sites.
func checkFunc(prog *analysis.Program, parent map[*analysis.CGNode]*analysis.CGEdge, n *analysis.CGNode) []finding {
	file := n.Pkg.FileOf(n.Decl.Pos())
	var suppressed map[int]bool
	if file != nil {
		suppressed = lintutil.SuppressedLines(n.Pkg.Fset, file, SuppressDirective)
	}
	info := n.Pkg.TypesInfo
	sigObjs := signatureObjects(info, n.Decl)
	preallocated := capacityMakes(info, n.Decl.Body)

	where := ""
	if parent[n] != nil { // not itself a root: spell the path from one
		where = " (reachable from //cenju4:hotpath root: " + analysis.RootPath(parent, n) + ")"
	}

	var out []finding
	report := func(pos token.Pos, desc string) {
		if suppressed[n.Pkg.Fset.Position(pos).Line] {
			return
		}
		out = append(out, finding{
			pkgPath: n.Pkg.ImportPath,
			pos:     pos,
			msg: "hot path: " + desc + " in " + analysis.DisplayName(n.Fn) + where +
				"; hoist it, preallocate, or justify with \"" + SuppressDirective + "\"",
		})
	}

	var walk func(node ast.Node) bool
	walk = func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			if isPanic(info, node) {
				return false // failure paths that terminate the run are cold
			}
			switch builtinName(info, node) {
			case "new":
				report(node.Pos(), "new(...) heap allocation")
			case "make":
				report(node.Pos(), "make allocates")
			case "append":
				if growsWithoutPrealloc(info, node, sigObjs, preallocated) {
					report(node.Pos(), "append growth without preallocation")
				}
			}
			if name, ok := lintutil.PkgFunc(info, node, "fmt"); ok {
				report(node.Pos(), "fmt."+name+" formats and boxes its arguments")
			}
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if _, ok := ast.Unparen(node.X).(*ast.CompositeLit); ok {
					report(node.Pos(), "composite literal escapes to the heap (&T{...})")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[node]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					report(node.Pos(), "slice literal allocates its backing array")
				case *types.Map:
					report(node.Pos(), "map literal allocates")
				}
			}
		case *ast.FuncLit:
			if captures(info, n.Decl, node) {
				report(node.Pos(), "closure captures variables and allocates per evaluation")
			}
		}
		return true
	}
	ast.Inspect(n.Decl.Body, walk)
	return out
}

// signatureObjects collects the receiver, parameter and result
// variables of fd — roots that exempt an append from the
// local-growth rule (the caller owns their capacity).
func signatureObjects(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	objs := make(map[types.Object]bool)
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					objs[obj] = true
				}
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	add(fd.Type.Results)
	return objs
}

// capacityMakes collects local variables that are, anywhere in the
// function, assigned a make with an explicit capacity (or length —
// a sized make is a preallocation): appends to them amortize.
func capacityMakes(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	objs := make(map[types.Object]bool)
	ast.Inspect(body, func(node ast.Node) bool {
		as, ok := node.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || builtinName(info, call) != "make" || len(call.Args) < 2 || i >= len(as.Lhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil {
					objs[obj] = true
				}
			}
		}
		return true
	})
	return objs
}

// growsWithoutPrealloc reports whether the append's destination is a
// function-local slice with no sized make: each growth past the
// doubling threshold allocates, and nothing amortizes it across
// events.
func growsWithoutPrealloc(info *types.Info, call *ast.CallExpr, sigObjs, preallocated map[types.Object]bool) bool {
	if len(call.Args) == 0 {
		return false
	}
	id := lintutil.RootIdent(call.Args[0])
	if id == nil || id.Name == "_" {
		return false
	}
	// A selector/index root (s.free, q.buckets[b]) grows structure-owned
	// capacity in place: amortized, allowed.
	if _, isIdent := ast.Unparen(call.Args[0]).(*ast.Ident); !isIdent {
		return false
	}
	obj := info.ObjectOf(id)
	if obj == nil || sigObjs[obj] || preallocated[obj] {
		return false
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return false
	}
	return true
}

// captures reports whether lit references a variable declared in the
// enclosing function outside the literal itself. References to
// package-level state do not allocate (the closure is static).
func captures(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok || found {
			return !found
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // declared inside the literal
		}
		if v.Pos() >= fd.Pos() && v.Pos() <= fd.End() {
			found = true
		}
		return true
	})
	return found
}

func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}
