// Package lintutil holds the pieces the cenju4-lint analyzers share:
// enum discovery over go/types, wall-clock and rand call matching, and
// suppression-comment lookup.
package lintutil

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ModulePrefix scopes enum exhaustiveness to types declared in this
// module; switches over stdlib or third-party enums are not our
// protocol tables.
const ModulePrefix = "cenju4"

// EnumConst is one constant of an enum type.
type EnumConst struct {
	Name string
	Val  int64
}

// Enum describes a named integer type with a package-level constant
// set — the shape of msg.Kind, cache.LineState, directory.State and
// the rest of the protocol's transition-table domains.
type Enum struct {
	Type   *types.Named
	Consts []EnumConst // sorted by value, duplicates removed (first name wins)
}

// Name returns the qualified type name (pkg.Type).
func (e *Enum) Name() string {
	obj := e.Type.Obj()
	return obj.Pkg().Name() + "." + obj.Name()
}

// MaxVal returns the largest constant value.
func (e *Enum) MaxVal() int64 {
	return e.Consts[len(e.Consts)-1].Val
}

// Contiguous reports whether the constants cover 0..MaxVal without
// gaps — the precondition for an index-synchronized name table.
func (e *Enum) Contiguous() bool {
	for i, c := range e.Consts {
		if c.Val != int64(i) {
			return false
		}
	}
	return true
}

// EnumOf reports whether t is an enum declared in this module: a named
// integer type with at least two package-level constants. It returns
// nil otherwise. Constants of imported packages are visible only if
// exported (export data omits unexported ones), which holds for every
// protocol enum in the tree.
func EnumOf(t types.Type) *Enum {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !inModule(obj.Pkg().Path()) {
		return nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 || basic.Info()&types.IsBoolean != 0 {
		return nil
	}
	return enumConsts(named)
}

func inModule(path string) bool {
	return path == ModulePrefix || strings.HasPrefix(path, ModulePrefix+"/")
}

func enumConsts(named *types.Named) *Enum {
	scope := named.Obj().Pkg().Scope()
	seen := make(map[int64]bool)
	var consts []EnumConst
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		v, exact := constInt64(c)
		if !exact || seen[v] {
			continue
		}
		seen[v] = true
		consts = append(consts, EnumConst{Name: name, Val: v})
	}
	if len(consts) < 2 {
		return nil
	}
	sort.Slice(consts, func(i, j int) bool { return consts[i].Val < consts[j].Val })
	return &Enum{Type: named, Consts: consts}
}

func constInt64(c *types.Const) (int64, bool) {
	return constant.Int64Val(c.Val())
}

// PkgFunc resolves a call of the form pkg.Fn where pkg is an imported
// package named by path, returning the function name and true.
func PkgFunc(info *types.Info, call *ast.CallExpr, path string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != path {
		return "", false
	}
	return sel.Sel.Name, true
}

// PanickingClause reports whether the case clause's statement list
// contains a direct call to the builtin panic.
func PanickingClause(info *types.Info, cc *ast.CaseClause) bool {
	for _, stmt := range cc.Body {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			continue
		}
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	}
	return false
}

// SuppressedLines collects the lines carrying (or directly above) a
// comment containing directive, e.g. "cenju4:order-insensitive". A
// range statement on line N is suppressed if the directive appears on
// line N or N-1.
func SuppressedLines(fset *token.FileSet, file *ast.File, directive string) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, directive) {
				line := fset.Position(c.Pos()).Line
				lines[line] = true
				lines[line+1] = true
			}
		}
	}
	return lines
}

// WallClock lists the time-package functions that read or depend on
// the host clock (shared by the determinism and simtime analyzers, for
// both their direct checks and the call-graph facts they propagate).
// Pure value constructors (time.Duration arithmetic) are not listed.
var WallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// PackageLevelVar reports whether obj is a package-level variable —
// the shared mutable state the pdessafety analyzer bans worker
// closures from reaching.
func PackageLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// RootIdent unwraps an assignable expression to its root identifier:
// results[i], *out, s.n and (x).f all resolve to the variable being
// (indirectly) written through. Returns nil for expressions with no
// identifier root (function call results, composite literals).
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// SimPackages is the set of packages whose event ordering defines a
// simulation outcome; the determinism and simtime analyzers apply
// their strictest rules inside them. A seed or replay is only
// reproducible if these packages are bit-deterministic (the PR 1
// fuzzer's byte-identical replay contract).
var SimPackages = map[string]bool{
	"cenju4/internal/core":      true,
	"cenju4/internal/sim":       true,
	"cenju4/internal/machine":   true,
	"cenju4/internal/network":   true,
	"cenju4/internal/directory": true,
	"cenju4/internal/npb":       true,
	// The processor model and the shared-memory library decide which
	// addresses a run touches and when: the op stream, its timing and
	// every home placement.
	"cenju4/internal/cpu":   true,
	"cenju4/internal/shmem": true,
	// Fault injection must be exactly as deterministic as the traffic
	// it perturbs: every drop/dup/delay/corrupt decision derives from
	// the (plan, seed, message) alone, so a chaos run replays
	// byte-identically at any -parallel level.
	"cenju4/internal/faults": true,
	// Observability must be as deterministic as the simulation it
	// reports on: metric reports and trace exports are byte-compared
	// across runs and across -parallel settings.
	"cenju4/internal/metrics": true,
	"cenju4/internal/trace":   true,

	// Deliberately NOT listed: cenju4/internal/serve and the cmd/
	// binaries. The experiment service is wall-clock-legitimate —
	// request latencies, job timeouts, LRU recency and drain deadlines
	// are service behavior, not simulation outcomes — so the simtime
	// analyzer's wall-clock ban would flag exactly the code that is
	// supposed to read the clock. Its determinism obligation is
	// narrower and enforced elsewhere: the payload bytes cached for a
	// digest must be identical wherever they were computed, which
	// internal/serve's tests and the CI serve-soak job assert directly.
	// The remaining analyzers (determinism's runner-closure rule,
	// exhaustiveswitch, enumnames) are module-wide and still cover it.
}
