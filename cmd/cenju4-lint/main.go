// Command cenju4-lint runs the repository's custom static-analysis
// suite (internal/analysis) over Go packages and fails on any
// diagnostic. CI runs it as a required job; run it locally with:
//
//	go run ./cmd/cenju4-lint ./...
//
// Usage:
//
//	cenju4-lint [-only a,b] [-list] [-json] [packages]
//
// The analyzers enforce the protocol's compile-time invariants. The
// suite is interprocedural: the driver builds a module-wide call graph
// and the starred analyzers propagate facts across package boundaries,
// so always run over ./... — a package subset weakens their transitive
// checks.
//
//	exhaustiveswitch  switches over protocol enums handle every
//	                  constant or panic in an explicit default
//	determinism     * simulation packages don't range over maps, read
//	                  the wall clock, or use the global math/rand —
//	                  directly or through helpers in other packages
//	enumnames         string-name tables stay index-synchronized with
//	                  their const blocks
//	simtime         * event-handler contexts use sim.Engine virtual
//	                  time, never the wall clock, through any helper
//	hotalloc        * no per-event heap allocation reachable from
//	                  //cenju4:hotpath roots
//	workersafety      * runner.Map workers don't write captured or
//	                  package-level state, through any helper
//
// With -json, findings are emitted as a JSON array of
// {analyzer, file, line, column, message} objects for tooling;
// the human format is file:line:col: message (analyzer), which the
// checked-in GitHub Actions problem matcher
// (.github/problem-matchers/cenju4-lint.json) turns into PR
// annotations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"cenju4/internal/analysis"
	"cenju4/internal/analysis/passes/determinism"
	"cenju4/internal/analysis/passes/enumnames"
	"cenju4/internal/analysis/passes/exhaustiveswitch"
	"cenju4/internal/analysis/passes/hotalloc"
	"cenju4/internal/analysis/passes/simtime"
	"cenju4/internal/analysis/passes/workersafety"
)

// All is the cenju4-lint suite in reporting order.
var All = []*analysis.Analyzer{
	exhaustiveswitch.Analyzer,
	determinism.Analyzer,
	enumnames.Analyzer,
	simtime.Analyzer,
	hotalloc.Analyzer,
	workersafety.Analyzer,
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Parse()

	if *list {
		for _, a := range All {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cenju4-lint: %v\n", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cenju4-lint: %v\n", err)
		os.Exit(2)
	}
	findings, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cenju4-lint: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, findings); err != nil {
			fmt.Fprintf(os.Stderr, "cenju4-lint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "cenju4-lint: %d diagnostic(s)\n", len(findings))
		os.Exit(1)
	}
}

// jsonFinding is the machine-readable diagnostic shape: flat, stable
// field names, one object per finding.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// writeJSON emits the findings as an indented JSON array ([] when the
// run is clean, so consumers can always json-decode the output).
func writeJSON(w *os.File, findings []analysis.Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			Analyzer: f.Analyzer,
			File:     f.Position.Filename,
			Line:     f.Position.Line,
			Column:   f.Position.Column,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// selectAnalyzers resolves the -only filter against the suite.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return All, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(All))
	for _, a := range All {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}
