package npb

import (
	"cenju4/internal/cpu"
	"cenju4/internal/shmem"
	"cenju4/internal/topology"
)

// phase is a restartable generator of operations. Programs are built as
// sequences of phases repeated over iterations, so multi-million-access
// workloads never materialize op slices. fill writes ops into buf
// (len(buf) >= cpu.MinFill) and returns how many it wrote; 0 means the
// phase is finished.
type phase interface {
	fill(buf []cpu.Op) int
}

// opPhase emits a fixed slice of ops (collectives, small sequences).
type opPhase struct {
	ops []cpu.Op
	pos int
}

//cenju4:hotpath
func (p *opPhase) fill(buf []cpu.Op) int {
	n := copy(buf, p.ops[p.pos:])
	p.pos += n
	return n
}

func barrier() phase           { return &opPhase{ops: []cpu.Op{{Kind: cpu.OpBarrier}}} }
func allReduce(n uint64) phase { return &opPhase{ops: []cpu.Op{{Kind: cpu.OpAllReduce, N: n}}} }

func send(dst topology.NodeID, bytes uint64) cpu.Op {
	return cpu.Op{Kind: cpu.OpSend, Dst: dst, N: bytes}
}
func recv(src topology.NodeID) cpu.Op {
	return cpu.Op{Kind: cpu.OpRecv, Dst: src}
}

// region is an array a phase streams over: a shared *shmem.Region or a
// private *shmem.PrivRegion.
type region interface {
	Len() int
	Span(i int) (topology.Addr, int)
}

// cursor walks a region one contiguous run (one cache block) at a time,
// asking it for an address once per run instead of once per element.
type cursor struct {
	r    region
	i    int           // current element
	addr topology.Addr // its address
	run  int           // elements left in the run, from i (0 = ask again)
}

// span returns the current element's address and how many elements,
// at most max, follow it in its run.
func (c *cursor) span(max int) (topology.Addr, int) {
	if c.run == 0 {
		c.addr, c.run = c.r.Span(c.i)
	}
	return c.addr, min(c.run, max)
}

// advance moves k elements on within the current run.
func (c *cursor) advance(k int) {
	c.i += k
	c.run -= k
	c.addr += topology.Addr(k * shmem.ElemSize)
}

// wrap restarts the cursor at element 0 once it has passed element n-1.
func (c *cursor) wrap(n int) {
	if c.i == n {
		c.i, c.run = 0, 0
	}
}

// body is the per-element loop body of a stream: a load, `compute`
// instructions, and a store every storeEvery-th element (0 = never).
// It emits one cpu.OpRun per block run (see cpu.OpRun for the order).
type body struct {
	kind       cpu.RunBody
	compute    uint64
	storeEvery int
	sinceStore int // elements since the last store
}

// op returns the OpRun for k elements from addr and moves the store
// phase past them.
func (b *body) op(addr topology.Addr, k int) cpu.Op {
	op := cpu.Op{Kind: cpu.OpRun, Addr: addr, N: b.compute, Body: b.kind,
		Count: uint8(k), StoreEvery: uint8(b.storeEvery), StorePhase: uint8(b.sinceStore)}
	if b.storeEvery > 0 {
		b.sinceStore = (b.sinceStore + k) % b.storeEvery
	}
	return op
}

// streamPhase sweeps elements [lo,hi), per element a load, `compute`
// instructions and a store every storeEvery-th element (cpu.RunStream).
// A sweep gets the block's natural 1-in-16 miss locality.
type streamPhase struct {
	cur cursor
	hi  int
	body
}

func stream(r region, lo, hi int, compute uint64, storeEvery int) phase {
	return &streamPhase{cur: cursor{r: r, i: lo}, hi: hi,
		body: body{kind: cpu.RunStream, compute: compute, storeEvery: storeEvery}}
}

//cenju4:hotpath
func (p *streamPhase) fill(buf []cpu.Op) int {
	n := 0
	for ; p.cur.i < p.hi && n < len(buf); n++ {
		addr, k := p.cur.span(p.hi - p.cur.i)
		buf[n] = p.op(addr, k)
		p.cur.advance(k)
	}
	return n
}

// wrapStreamPhase sweeps `count` elements starting at `start` modulo the
// region length — used for transpose-style reads of other nodes'
// partitions and for CG's full-vector coverage. Per element it emits an
// optional load of the next element of a second (private) region, a
// load, and then a store every storeEvery-th element or else `compute`
// instructions (cpu.RunWrap, cpu.RunWrapPaired).
type wrapStreamPhase struct {
	cur     cursor
	n       int // region length
	count   int
	pair    *cursor // optional second access per element
	pairLen int
	body

	done int // elements emitted
}

func wrapStream(r region, start, count int, compute uint64) *wrapStreamPhase {
	n := r.Len()
	return &wrapStreamPhase{cur: cursor{r: r, i: start % n}, n: n, count: count,
		body: body{kind: cpu.RunWrap, compute: compute}}
}

// rotStream sweeps `count` elements of a large private buffer starting
// at a pass-dependent offset, with a store every storeEvery-th element.
// Rotating the start across passes models a working set larger than the
// cache (the NPB solvers touch several state arrays per point), so
// streaming passes miss at the block rate on every machine size — the
// sequential baseline included — instead of turning into a cache-fit
// artifact at high node counts.
func rotStream(priv *shmem.PrivRegion, pass, count int, compute uint64, storeEvery int) phase {
	p := wrapStream(priv, pass*count, count, compute)
	p.storeEvery = storeEvery
	return p
}

// pairedStream is wrapStream plus one private access per element — the
// CG inner loop: load A[j] (private), load p[col] (shared), compute. A
// run ends where either cursor's block run ends.
func pairedStream(r region, start, count int, priv *shmem.PrivRegion, compute uint64) phase {
	p := wrapStream(r, start, count, compute)
	p.pair = &cursor{r: priv}
	p.pairLen = priv.Len()
	p.kind = cpu.RunWrapPaired
	return p
}

//cenju4:hotpath
func (p *wrapStreamPhase) fill(buf []cpu.Op) int {
	n := 0
	for ; p.done < p.count && n < len(buf); n++ {
		addr, k := p.cur.span(p.count - p.done)
		if p.pair != nil {
			var pa topology.Addr
			pa, k = p.pair.span(k)
			buf[n] = p.op(addr, k)
			buf[n].Pair = pa
			p.pair.advance(k)
			p.pair.wrap(p.pairLen)
		} else {
			buf[n] = p.op(addr, k)
		}
		p.done += k
		p.cur.advance(k)
		p.cur.wrap(p.n)
	}
	return n
}

// program runs per-iteration phase lists as a cpu.Program: build(iter)
// returns iteration iter's phases, and Fill drains them in order.
type program struct {
	iters int
	build func(iter int) []phase
	iter  int
	cur   []phase // the unfinished phases of the current iteration
}

//cenju4:hotpath
func (p *program) Fill(buf []cpu.Op) int {
	n := 0
	for n+cpu.MinFill <= len(buf) {
		if len(p.cur) == 0 {
			if p.iter == p.iters {
				break
			}
			//cenju4:alloc-ok one phase list per program iteration, amortized over its ops
			p.cur = p.build(p.iter)
			p.iter++
			continue
		}
		if k := p.cur[0].fill(buf[n:]); k > 0 {
			n += k
		} else {
			p.cur = p.cur[1:]
		}
	}
	return n
}
