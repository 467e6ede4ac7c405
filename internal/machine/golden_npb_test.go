package machine

// NPB golden regression test: every application in every program form
// — seq, mpi, and dsm(1)/dsm(2) with and without data mappings — at a
// small scale must reproduce the pinned machine.Digest. The synthetic
// golden matrix drives the protocol with op slices; this matrix pins
// the workload generators and the processor front end that feeds them
// to the caches.
//
// Regenerate after an intentional behavior change:
//
//	UPDATE_GOLDEN=1 go test ./internal/machine -run TestNPBGoldenDigests

import (
	"fmt"
	"path/filepath"
	"testing"

	"cenju4/internal/npb"
)

type npbGoldenCase struct {
	name string
	opts npb.Options
}

func npbGoldenMatrix() []npbGoldenCase {
	const nodes = 8
	forms := []struct {
		v      npb.Variant
		mapped bool
	}{{npb.Seq, false}, {npb.MPI, false}, {npb.DSM1, false}, {npb.DSM1, true}, {npb.DSM2, false}, {npb.DSM2, true}}
	var cases []npbGoldenCase
	for _, app := range npb.Apps() {
		for _, f := range forms {
			n := nodes
			if f.v == npb.Seq {
				n = 1
			}
			name := fmt.Sprintf("%v-%v-n%d", app, f.v, n)
			if f.v == npb.DSM1 || f.v == npb.DSM2 {
				name += map[bool]string{false: "-nomap", true: "-map"}[f.mapped]
			}
			cases = append(cases, npbGoldenCase{name: name, opts: npb.Options{
				App: app, Variant: f.v, Nodes: n, DataMapping: f.mapped,
				Iterations: 2, Scale: 0.02,
			}})
		}
	}
	return cases
}

func runNPBGolden(t testing.TB, c npbGoldenCase) string {
	w, err := npb.Build(c.opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	m := New(Config{Nodes: c.opts.Nodes, Multicast: true})
	return Digest(m.Run(w.Progs))
}

func TestNPBGoldenDigests(t *testing.T) {
	cases := npbGoldenMatrix()
	names := make([]string, len(cases))
	for i, c := range cases {
		names[i] = c.name
	}
	want := goldenFile(t, filepath.Join("testdata", "golden_npb.txt"),
		"machine.Result digests for the NPB application x program-form matrix.",
		"TestNPBGoldenDigests", names, func(i int) string { return runNPBGolden(t, cases[i]) })
	if want == nil {
		return
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if !testing.Short() {
				t.Parallel() // each case owns its machine; digests are per-case
			}
			if got := runNPBGolden(t, c); got != want[c.name] {
				t.Errorf("digest %s\n     want %s\nNPB outcome changed; if intentional, regenerate with UPDATE_GOLDEN=1 and explain in the commit", got, want[c.name])
			}
		})
	}
}
