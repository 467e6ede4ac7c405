package experiments

import (
	"fmt"
	"strings"

	"cenju4/internal/machine"
	"cenju4/internal/sim"
	"cenju4/internal/timing"
	"cenju4/internal/topology"
)

// Table2Row identifies one row of Table 2.
type Table2Row string

// The rows of Table 2.
const (
	RowPrivate     Table2Row = "a) private"
	RowLocalClean  Table2Row = "b) shared local(clean)"
	RowRemoteClean Table2Row = "c) shared remote(clean)"
	RowLocalDirty  Table2Row = "d) shared local(dirty)"
	RowRemoteDirty Table2Row = "e) shared remote(dirty)"
)

// Table2Rows lists the rows in paper order.
func Table2Rows() []Table2Row {
	return []Table2Row{RowPrivate, RowLocalClean, RowRemoteClean, RowLocalDirty, RowRemoteDirty}
}

// Table2Result holds measured and published load latencies (ns) per
// network stage count.
type Table2Result struct {
	Stages   []int // 2, 4, 6
	Nodes    []int // 16, 128, 1024
	Measured map[Table2Row][]sim.Time
	Paper    map[Table2Row][]sim.Time
}

// paperTable2 is Table 2 of the paper, in nanoseconds.
var paperTable2 = map[Table2Row][]sim.Time{
	RowPrivate:     {470, 470, 470},
	RowLocalClean:  {610, 610, 610},
	RowRemoteClean: {1690, 2210, 2730},
	RowLocalDirty:  {1900, 2480, 3060},
	RowRemoteDirty: {3120, 4170, 5220},
}

// Table2 measures the five load-latency rows at 2-, 4- and 6-stage
// network sizes.
func Table2() Table2Result {
	res := Table2Result{
		Stages:   []int{2, 4, 6},
		Nodes:    []int{16, 128, 1024},
		Measured: make(map[Table2Row][]sim.Time),
		Paper:    paperTable2,
	}
	// Rows b-e time one load of block 0 of home node 0, each on its own
	// idle machine; rows d and e first leave the block dirty in node
	// 1's cache.
	blk := topology.SharedAddr(0, 0)
	p := timing.Default()
	for _, nodes := range res.Nodes {
		load := func(node topology.NodeID, dirtyAt1 bool) sim.Time {
			m := machine.New(machine.Config{Nodes: nodes, Multicast: true})
			if dirtyAt1 {
				m.Access(1, blk, true)
			}
			return m.Access(node, blk, false)
		}
		// a) private: served by the node's own memory without the DSM.
		res.Measured[RowPrivate] = append(res.Measured[RowPrivate], p.ProcOverhead+p.MemAccess)
		// b) shared local clean: load by the home node, nobody caching.
		res.Measured[RowLocalClean] = append(res.Measured[RowLocalClean], load(0, false))
		// c) shared remote clean.
		res.Measured[RowRemoteClean] = append(res.Measured[RowRemoteClean], load(1, false))
		// d) shared local dirty: dirty in node 1's cache, load by home 0.
		res.Measured[RowLocalDirty] = append(res.Measured[RowLocalDirty], load(0, true))
		// e) shared remote dirty: dirty at node 1, load by node 2.
		res.Measured[RowRemoteDirty] = append(res.Measured[RowRemoteDirty], load(2, true))
	}
	return res
}

// Render prints the table with paper values and deltas.
func (r Table2Result) Render() string {
	t := &table{header: []string{"row", "2st meas", "2st paper", "4st meas", "4st paper", "6st meas", "6st paper", "max err"}}
	for _, row := range Table2Rows() {
		cells := []string{string(row)}
		maxErr := 0.0
		for i := range r.Stages {
			m, p := r.Measured[row][i], r.Paper[row][i]
			cells = append(cells, fmt.Sprintf("%d", m), fmt.Sprintf("%d", p))
			e := relErr(m, p)
			if e > maxErr {
				maxErr = e
			}
		}
		cells = append(cells, pct(maxErr))
		t.add(cells...)
	}
	return "Table 2: load access latencies (ns)\n" + t.String()
}

func relErr(m, p sim.Time) float64 {
	d := float64(m) - float64(p)
	if d < 0 {
		d = -d
	}
	return d / float64(p)
}

// MaxError returns the worst relative error across all cells.
func (r Table2Result) MaxError() float64 {
	worst := 0.0
	for _, row := range Table2Rows() {
		for i := range r.Stages {
			if e := relErr(r.Measured[row][i], r.Paper[row][i]); e > worst {
				worst = e
			}
		}
	}
	return worst
}

// Figure10Point is one store-latency measurement.
type Figure10Point struct {
	Sharers int
	Latency sim.Time
}

// Figure10Series is one curve: a stage count with multicast on or off.
type Figure10Series struct {
	Stages    int
	Nodes     int
	Multicast bool
	Points    []Figure10Point
}

// Figure10Result holds the store-latency curves of Figure 10.
type Figure10Result struct {
	Series []Figure10Series
	// PaperMulticast1024 and PaperSinglecast1024 are the paper's
	// estimated end points: 6.3 us and 184 us with 1024 sharers.
	PaperMulticast1024  sim.Time
	PaperSinglecast1024 sim.Time
}

// Figure10 measures store-access latency to a block shared by k nodes,
// for 2/4/6-stage machines with the multicast and gathering functions
// enabled, and for the 6-stage machine with them disabled (the paper's
// estimated comparison).
func Figure10() Figure10Result {
	res := Figure10Result{PaperMulticast1024: 6300, PaperSinglecast1024: 184000}
	cases := []struct {
		nodes     int
		multicast bool
	}{
		{16, true}, {128, true}, {1024, true}, {1024, false},
	}
	for _, c := range cases {
		s := Figure10Series{
			Stages:    topology.StagesForNodes(c.nodes),
			Nodes:     c.nodes,
			Multicast: c.multicast,
		}
		for _, k := range sharerCounts(c.nodes) {
			s.Points = append(s.Points, Figure10Point{
				Sharers: k,
				Latency: storeLatency(c.nodes, c.multicast, k),
			})
		}
		res.Series = append(res.Series, s)
	}
	return res
}

func sharerCounts(nodes int) []int {
	base := []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	var out []int
	for _, k := range base {
		if k < nodes { // the home itself does not share
			out = append(out, k)
		}
	}
	if nodes > 1 {
		out = append(out, nodes-1)
	}
	return dedupeInts(out)
}

func dedupeInts(in []int) []int {
	out := in[:0]
	var last int
	for i, v := range in {
		if i == 0 || v != last {
			out = append(out, v)
		}
		last = v
	}
	return out
}

// storeLatency sets up a block homed at node 0 and cached shared by
// nodes 1..k, then measures a store by node 1 (an ownership request
// whose invalidations fan out to the other sharers).
func storeLatency(nodes int, multicast bool, k int) sim.Time {
	m := machine.New(machine.Config{Nodes: nodes, Multicast: multicast})
	addr := topology.SharedAddr(0, 0)
	for i := 1; i <= k; i++ {
		m.Access(topology.NodeID(i), addr, false)
	}
	return m.Access(1, addr, true)
}

// Render prints the curves.
func (r Figure10Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 10: store access latencies (block shared by k nodes)\n")
	for _, s := range r.Series {
		mode := "multicast+gathering"
		if !s.Multicast {
			mode = "singlecast (estimated comparison)"
		}
		fmt.Fprintf(&b, "\n%d-stage network (%d nodes), %s:\n", s.Stages, s.Nodes, mode)
		t := &table{header: []string{"sharers", "latency"}}
		for _, pt := range s.Points {
			t.add(fmt.Sprintf("%d", pt.Sharers), us(pt.Latency))
		}
		b.WriteString(t.String())
	}
	fmt.Fprintf(&b, "\npaper end points at 1024 sharers: %s with multicast, %s without\n",
		us(r.PaperMulticast1024), us(r.PaperSinglecast1024))
	return b.String()
}

// EndPoint returns the measured latency of the largest sharer count in
// the series matching (nodes, multicast).
func (r Figure10Result) EndPoint(nodes int, multicast bool) (Figure10Point, bool) {
	for _, s := range r.Series {
		if s.Nodes == nodes && s.Multicast == multicast && len(s.Points) > 0 {
			return s.Points[len(s.Points)-1], true
		}
	}
	return Figure10Point{}, false
}
