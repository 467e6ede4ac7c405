package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// probeSections renders the timed-access experiments exactly as
// cenju4-bench prints them under the quick preset at -parallel 1: Table
// 2, Figure 10, and the ablations step (the hot-block storm, the
// singlecast-threshold sweep and the imprecision sweep at the default
// -ablation-seed 7).
func probeSections() map[string]string {
	cfg := Quick()
	cfg.Parallel = 1
	var abl strings.Builder
	abl.WriteString(AblationNack(32).Render())
	abl.WriteString("\n")
	abl.WriteString(AblationSinglecastThreshold(cfg, 64).Render())
	abl.WriteString("\n")
	abl.WriteString(AblationImprecision(cfg, 1024, 7).Render())
	return map[string]string{
		"table2":    Table2().Render(),
		"fig10":     Figure10().Render(),
		"ablations": abl.String(),
	}
}

// TestProbeSectionsGolden pins the single-access measurements byte for
// byte: every number in these sections is one access timed on an idle
// machine, so any change to how an access is issued or timed shows up
// here, where the shape tests accept wide bands. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/experiments -run
// TestProbeSectionsGolden, and explain the change in the commit.
func TestProbeSectionsGolden(t *testing.T) {
	for name, got := range probeSections() {
		path := filepath.Join("testdata", name+".txt")
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden section (run with UPDATE_GOLDEN=1 to create): %v", err)
		}
		if got != string(want) {
			t.Errorf("%s section differs from %s:\n got:\n%s\nwant:\n%s", name, path, got, want)
		}
	}
}
