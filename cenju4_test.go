package cenju4

import (
	"errors"
	"testing"
	"time"

	"cenju4/internal/machine"
)

func TestMachineLoadStoreLifecycle(t *testing.T) {
	m := NewMachine(16)
	if m.Nodes() != 16 || m.Stages() != 2 {
		t.Fatalf("geometry: %d nodes, %d stages", m.Nodes(), m.Stages())
	}
	// Cold load by the home node: Table 2 row b (610 ns).
	if lat := m.Load(0, 0, 0); lat != 610*time.Nanosecond {
		t.Fatalf("local clean load = %v, want 610ns", lat)
	}
	if st := m.CacheState(0, 0, 0); st != "E" {
		t.Fatalf("state = %s, want E", st)
	}
	// Second load hits.
	if lat := m.Load(0, 0, 0); lat != 0 {
		t.Fatalf("hit latency = %v, want 0", lat)
	}
	// A remote reader shares the block.
	m.Load(1, 0, 0)
	if st := m.CacheState(1, 0, 0); st != "S" {
		t.Fatalf("reader state = %s, want S", st)
	}
	d := m.Directory(0, 0)
	if d.State != "C" || len(d.Sharers) != 2 || d.BitPattern {
		t.Fatalf("directory = %v", d)
	}
	// A third node stores: invalidations fly.
	m.Store(2, 0, 0)
	if st := m.CacheState(1, 0, 0); st != "I" {
		t.Fatalf("sharer not invalidated: %s", st)
	}
	d = m.Directory(0, 0)
	if d.State != "D" || len(d.Sharers) != 1 || d.Sharers[0] != 2 {
		t.Fatalf("directory after store = %v", d)
	}
	s := m.Stats()
	if s.Requests == 0 || s.Invalidations == 0 || s.NetworkMessages == 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Nacks != 0 {
		t.Fatal("queuing protocol nacked")
	}
	if d.String() == "" {
		t.Fatal("empty directory string")
	}
}

func TestMachineOptions(t *testing.T) {
	m := NewMachine(16, WithStages(4))
	if m.Stages() != 4 {
		t.Fatalf("stages = %d", m.Stages())
	}
	m = NewMachine(16, WithoutMulticast())
	for i := 1; i < 8; i++ {
		m.Load(i, 0, 0)
	}
	m.Store(1, 0, 0)
	if st := m.CacheState(5, 0, 0); st != "I" {
		t.Fatalf("singlecast invalidation failed: %s", st)
	}
	m = NewMachine(16, WithNackProtocol())
	m.Load(1, 0, 0) // sanity: protocol still works
	if st := m.CacheState(1, 0, 0); st != "E" {
		t.Fatalf("nack protocol load: %s", st)
	}
}

func TestRunNPB(t *testing.T) {
	r, err := RunNPB("cg", "dsm2", WorkloadOptions{Nodes: 8, Iterations: 1, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if r.Time == 0 || r.MemAccesses == 0 || r.MissRatio <= 0 {
		t.Fatalf("result = %+v", r)
	}
	if r.RewriteRatio <= 0 {
		t.Fatal("no rewrite ratio")
	}
	shares := r.PrivateMissShare + r.LocalMissShare + r.RemoteMissShare
	if shares < 0.99 || shares > 1.01 {
		t.Fatalf("miss shares sum to %.3f", shares)
	}
	// Sequential runs force one node.
	r, err = RunNPB("bt", "seq", WorkloadOptions{Nodes: 8, Iterations: 1, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if r.RemoteMissShare != 0 || r.LocalMissShare != 0 {
		t.Fatal("seq run touched shared memory")
	}
}

func TestRunNPBErrors(t *testing.T) {
	if _, err := RunNPB("lu", "dsm2", WorkloadOptions{}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := RunNPB("bt", "openmp", WorkloadOptions{}); err == nil {
		t.Fatal("unknown variant accepted")
	}
	var bad *machine.InvalidNodeCountError
	if _, err := RunNPB("bt", "dsm2", WorkloadOptions{Nodes: 3}); !errors.As(err, &bad) {
		t.Fatalf("3 nodes: got %v, want an InvalidNodeCountError", err)
	}
}

func TestFuzzSmokeRejectsBadOptions(t *testing.T) {
	if err := FuzzSmoke(1, -1); err == nil {
		t.Fatal("FuzzSmoke(1, -1) returned nil, want the negative op count refused")
	}
}

func TestRunNPBUpdateProtocol(t *testing.T) {
	base, err := RunNPB("cg", "dsm2", WorkloadOptions{Nodes: 16, Iterations: 2, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	upd, err := RunNPB("cg", "dsm2", WorkloadOptions{Nodes: 16, Iterations: 2, Scale: 0.05, UpdateProtocol: true})
	if err != nil {
		t.Fatal(err)
	}
	if upd.RemoteMissShare >= base.RemoteMissShare {
		t.Errorf("update protocol did not cut remote misses: %.3f vs %.3f",
			upd.RemoteMissShare, base.RemoteMissShare)
	}
	if _, ok := upd.Latency["update-write"]; !ok {
		t.Errorf("no update-write latency recorded: %v", upd.Latency)
	}
}

func TestLatencyStatsPresent(t *testing.T) {
	r, err := RunNPB("bt", "dsm1", WorkloadOptions{Nodes: 8, Iterations: 1, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	rs, ok := r.Latency["read-shared"]
	if !ok || rs.Count == 0 || rs.P99 < rs.P50 || rs.Max < rs.P99/2 {
		t.Fatalf("latency stats inconsistent: %+v", r.Latency)
	}
}

func TestDirectoryPrecisionFacade(t *testing.T) {
	pts := DirectoryPrecision(1024, 128, 30, []int{4, 32})
	if len(pts) != 3 {
		t.Fatalf("%d schemes", len(pts))
	}
	for name, series := range pts {
		if len(series) != 2 {
			t.Fatalf("%s: %d points", name, len(series))
		}
		if series[0].Represented < 4 {
			t.Fatalf("%s: represented %.1f < sharers", name, series[0].Represented)
		}
	}
	if len(Schemes()) != 3 {
		t.Fatal("scheme names")
	}
}
