package machine

// Golden end-to-end regression test: run a fixed seed/config matrix of
// synthetic shared-memory workloads and compare the SHA-256 digest of
// every machine.Result against testdata/golden_digests.txt. Any change
// to the event kernel, the network model, the protocol, or the stats
// plumbing that perturbs any simulation outcome fails here.
//
// To regenerate after an intentional behavior change:
//
//	UPDATE_GOLDEN=1 go test ./internal/machine -run TestGoldenDigests
//
// and include the updated testdata file (and an explanation of why the
// numbers moved) in the same commit.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cenju4/internal/core"
	"cenju4/internal/cpu"
	"cenju4/internal/topology"
)

// splitmix64 is the repo's standard seed-derivation step (see
// fuzz.CaseSeed): deterministic, stateless, platform-independent.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// goldenProgs builds one deterministic workload: every node issues a
// seed-derived mix of compute bursts and loads/stores over a small set
// of shared blocks spread across all homes (so the run exercises local
// and remote transactions, invalidations, forwards and writebacks),
// then joins a final barrier.
func goldenProgs(nodes int, seed uint64) []cpu.Program {
	const opsPerNode = 120
	const blocksPerHome = 2
	progs := make([]cpu.Program, nodes)
	for n := 0; n < nodes; n++ {
		s := splitmix64(seed<<8 | uint64(n))
		ops := make([]cpu.Op, 0, opsPerNode+1)
		for i := 0; i < opsPerNode; i++ {
			s = splitmix64(s)
			home := topology.NodeID(s % uint64(nodes))
			block := (s >> 17) % blocksPerHome
			addr := topology.SharedAddr(home, block*topology.BlockSize)
			switch (s >> 37) % 4 {
			case 0:
				ops = append(ops, cpu.Op{Kind: cpu.OpCompute, N: 1 + s>>45%40})
			case 1, 2:
				ops = append(ops, cpu.Op{Kind: cpu.OpLoad, Addr: addr})
			default:
				ops = append(ops, cpu.Op{Kind: cpu.OpStore, Addr: addr})
			}
		}
		ops = append(ops, cpu.Op{Kind: cpu.OpBarrier, N: 0})
		progs[n] = &cpu.SliceProgram{Ops: ops}
	}
	return progs
}

type goldenCase struct {
	name      string
	nodes     int
	mode      core.Mode
	multicast bool
	seed      uint64
}

func goldenMatrix() []goldenCase {
	var cases []goldenCase
	for _, nodes := range []int{4, 16} {
		for _, mode := range []core.Mode{core.ModeQueuing, core.ModeNack} {
			for _, mc := range []bool{true, false} {
				for seed := uint64(1); seed <= 2; seed++ {
					cases = append(cases, goldenCase{
						name:  fmt.Sprintf("n%d-%v-mc%t-s%d", nodes, mode, mc, seed),
						nodes: nodes, mode: mode, multicast: mc, seed: seed,
					})
				}
			}
		}
	}
	return cases
}

func runGolden(c goldenCase) string {
	m := New(Config{Nodes: c.nodes, Mode: c.mode, Multicast: c.multicast})
	r := m.Run(goldenProgs(c.nodes, c.seed))
	return Digest(r)
}

func TestGoldenDigests(t *testing.T) {
	cases := goldenMatrix()
	names := make([]string, len(cases))
	for i, c := range cases {
		names[i] = c.name
	}
	want := goldenFile(t, filepath.Join("testdata", "golden_digests.txt"),
		"machine.Result digests for the golden config/seed matrix.",
		"TestGoldenDigests", names, func(i int) string { return runGolden(cases[i]) })
	if want == nil {
		return
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if !testing.Short() {
				t.Parallel() // each case owns its machine; digests are per-case
			}
			if got := runGolden(c); got != want[c.name] {
				t.Errorf("digest %s\n     want %s\nsimulation outcome changed; if intentional, regenerate with UPDATE_GOLDEN=1 and explain in the commit", got, want[c.name])
			}
		})
	}
}

// goldenFile returns the "name digest" entries of a golden file and
// fails the test unless they cover exactly names. With UPDATE_GOLDEN
// set it instead rewrites the file from run(i) for every names[i] and
// returns nil, so the caller skips its comparisons.
func goldenFile(t *testing.T, path, title, testName string, names []string, run func(i int) string) map[string]string {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		var b strings.Builder
		fmt.Fprintf(&b, "# %s\n", title)
		fmt.Fprintf(&b, "# Regenerate: UPDATE_GOLDEN=1 go test ./internal/machine -run %s\n", testName)
		for i, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, run(i))
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return nil
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(names) {
		t.Fatalf("golden file %s has %d entries, matrix has %d — regenerate", path, len(want), len(names))
	}
	for _, name := range names {
		if _, ok := want[name]; !ok {
			t.Fatalf("no golden entry for %s in %s — regenerate", name, path)
		}
	}
	return want
}

// TestDigestSensitivity: the digest must differ across distinct
// outcomes and be identical for identical reruns.
func TestDigestSensitivity(t *testing.T) {
	c := goldenCase{nodes: 4, mode: core.ModeQueuing, multicast: true, seed: 1}
	d1 := runGolden(c)
	d2 := runGolden(c)
	if d1 != d2 {
		t.Fatalf("identical runs digest differently: %s vs %s", d1, d2)
	}
	c.seed = 2
	if d3 := runGolden(c); d3 == d1 {
		t.Fatal("different workloads produced the same digest")
	}
	c.seed = 1
	c.multicast = false
	if d4 := runGolden(c); d4 == d1 {
		t.Fatal("different configs produced the same digest")
	}
}
