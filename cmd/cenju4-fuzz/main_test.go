package main

import (
	"strings"
	"testing"

	"cenju4/internal/core"
	"cenju4/internal/fuzz"
)

func TestPickModes(t *testing.T) {
	cases := []struct {
		in   string
		want []core.Mode
	}{
		{"all", []core.Mode{core.ModeQueuing, core.ModeNack}},
		{"queuing", []core.Mode{core.ModeQueuing}},
		{"nack", []core.Mode{core.ModeNack}},
	}
	for _, c := range cases {
		got, err := pickModes(c.in)
		if err != nil {
			t.Fatalf("pickModes(%q): %v", c.in, err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("pickModes(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("pickModes(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
	if _, err := pickModes("dash"); err == nil {
		t.Fatal("pickModes(\"dash\") should fail")
	}
}

func TestPickBool(t *testing.T) {
	cases := []struct {
		in   string
		want []bool
	}{
		{"all", []bool{true, false}},
		{"on", []bool{true}},
		{"off", []bool{false}},
	}
	for _, c := range cases {
		got, err := pickBool(c.in)
		if err != nil {
			t.Fatalf("pickBool(%q): %v", c.in, err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("pickBool(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("pickBool(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
	if _, err := pickBool("maybe"); err == nil {
		t.Fatal("pickBool(\"maybe\") should fail")
	}
}

func TestCellsSingleSlice(t *testing.T) {
	got, err := cells("queuing", "on", "off", "4")
	if err != nil {
		t.Fatalf("cells: %v", err)
	}
	want := []fuzz.Cell{{Mode: core.ModeQueuing, Multicast: true, Update: false, Stages: 4}}
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("cells = %v, want %v", got, want)
	}
}

// TestCellsFullMatrix checks the sweep size and that the "all" update
// axis matches fuzz.DefaultCells order (off before on) so -replay
// per-case seeds line up with the library sweep.
func TestCellsFullMatrix(t *testing.T) {
	got, err := cells("all", "all", "all", "2, 4,6")
	if err != nil {
		t.Fatalf("cells: %v", err)
	}
	if want := 2 * 2 * 2 * 3; len(got) != want {
		t.Fatalf("full matrix has %d cells, want %d", len(got), want)
	}
	if got[0].Stages != 2 || got[1].Stages != 4 || got[2].Stages != 6 {
		t.Fatalf("stages should be the innermost axis, got %v, %v, %v", got[0], got[1], got[2])
	}
	if got[0].Update || !got[3].Update {
		t.Fatalf("update axis should sweep off before on, got %v then %v", got[0], got[3])
	}
}

func TestCellsRejectsBadValues(t *testing.T) {
	cases := []struct {
		name                           string
		mode, multicast, update, stage string
		wantErr                        string
	}{
		{"bad mode", "dash", "all", "all", "4", "-mode"},
		{"bad multicast", "all", "yes", "all", "4", "-multicast"},
		{"bad update", "all", "all", "sometimes", "4", "-update"},
		{"bad stages", "all", "all", "all", "4,x", "-stages"},
		{"empty stages entry", "all", "all", "all", "4,,6", "-stages"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := cells(c.mode, c.multicast, c.update, c.stage)
			if err == nil {
				t.Fatal("expected an error")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not name the offending flag %q", err, c.wantErr)
			}
		})
	}
}

// TestPatternsList: -pattern takes a comma list in the order given,
// or "all" for every generator.
func TestPatternsList(t *testing.T) {
	got, err := patterns("hotspot, migratory")
	if err != nil {
		t.Fatalf("patterns: %v", err)
	}
	want := []fuzz.Pattern{fuzz.PatternHotspot, fuzz.PatternMigratory}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("patterns = %v, want %v", got, want)
	}
	if all, err := patterns("all"); err != nil || len(all) != len(fuzz.AllPatterns()) {
		t.Fatalf("patterns(all) = %v, %v", all, err)
	}
	for _, bad := range []string{"bogus", "hotspot,", "hotspot,bogus"} {
		if _, err := patterns(bad); err == nil {
			t.Errorf("patterns(%q) accepted", bad)
		}
	}
}
