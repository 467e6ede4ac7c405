package main

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cenju4/internal/core"
	"cenju4/internal/faults"
	"cenju4/internal/fuzz"
)

// TestCellsFilterMatrix: every accepted value of -mode, -multicast and
// -update, "all" included, keeps exactly the matching cells of
// fuzz.Matrix, in the matrix's order, so per-case seeds line up with
// the library sweep.
func TestCellsFilterMatrix(t *testing.T) {
	matches := func(flag, v string) bool { return flag == "all" || flag == v }
	onOff := map[bool]string{true: "on", false: "off"}
	for _, mode := range []string{"all", "queuing", "nack"} {
		for _, mc := range []string{"all", "on", "off"} {
			for _, upd := range []string{"all", "on", "off"} {
				got, err := cells(mode, mc, upd, "2,4,6")
				if err != nil {
					t.Fatalf("cells(%s, %s, %s): %v", mode, mc, upd, err)
				}
				var want []fuzz.Cell
				for _, c := range fuzz.DefaultCells() {
					if matches(mode, c.Mode.String()) && matches(mc, onOff[c.Multicast]) && matches(upd, onOff[c.Update]) {
						want = append(want, c)
					}
				}
				n := 3
				for _, v := range []string{mode, mc, upd} {
					if v == "all" {
						n *= 2
					}
				}
				if !slices.Equal(got, want) || len(got) != n {
					t.Errorf("cells(%s, %s, %s) = %v, want the %d cells %v", mode, mc, upd, got, n, want)
				}
			}
		}
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

// TestReplayCarriesFaultAndBudget: the case -replay selects is the
// sweep's own case, with the -fault plan and -budget the sweep ran it
// under, so a watchdog failure found by the sweep reproduces on replay.
func TestReplayCarriesFaultAndBudget(t *testing.T) {
	spec, err := faults.ParseSpec("drop-forwards")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cells("queuing", "on", "off", "4")
	if err != nil {
		t.Fatal(err)
	}
	opts := fuzz.Options{
		Seed: 1, Ops: 300, Rounds: 2,
		Patterns: []fuzz.Pattern{fuzz.PatternHotspot}, Cells: cs,
		Fault: spec, MaxEvents: 10_000_000,
	}
	cases, err := opts.Cases()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 16860738450190168606
	c, err := replayed(cases, seed)
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed != seed || c.Fault != spec || c.MaxEvents != opts.MaxEvents || !c.Trace {
		t.Fatalf("replayed case %+v lost the sweep's fault plan, budget or trace", c)
	}
	want := fmt.Sprintf("replay %v\nfault plan: %v\nevent budget: 10000000\n", c, spec)
	if got := replayHeader(c); got != want {
		t.Fatalf("replay header %q, want %q", got, want)
	}
	c.Fault, c.MaxEvents = faults.Spec{}, 0
	if got, want := replayHeader(c), fmt.Sprintf("replay %v\n", c); got != want {
		t.Fatalf("fault-free replay header %q, want %q", got, want)
	}
	c.Fault, c.MaxEvents = spec, opts.MaxEvents
	res := fuzz.RunOps(c, fuzz.Generate(c.Pattern, c.Seed, c.Nodes, c.Ops))
	if !res.Watchdog || !strings.Contains(res.Panic, "never finished") {
		t.Fatalf("replay did not reproduce the sweep's watchdog trip: %q", res.Panic)
	}
	if _, err := replayed(cases, seed+1); err == nil {
		t.Fatal("replayed found a case for a seed outside the sweep")
	}
}
