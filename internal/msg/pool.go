package msg

// Pool is a free list of Message records for the simulator's hot path:
// every coherence hop allocates a Message, and in a machine-owned
// configuration each message has a well-defined end of life (delivered
// to a controller handler, absorbed by in-network gathering, or
// expanded into per-destination copies), so records can be recycled
// instead of garbage-collected.
//
// Pooling is opt-in. A nil *Pool is valid and disables recycling: Get
// falls back to plain allocation and Put is a no-op. Only
// machine.Machine wires a pool (into both the network and every
// controller); code that constructs networks or controllers directly —
// including tests whose handlers retain delivered messages — keeps the
// allocate-and-forget behavior.
//
// Put clears only what could leak into a later transaction, the Gather
// pointer; Get zeroes a record as it hands it out and New and Clone
// overwrite it whole, so no record is cleared twice.
//
// A Pool is not goroutine-safe: it belongs to one machine, which
// belongs to one engine, which is single-threaded. Parallel sweeps
// (internal/runner) give every run its own machine and therefore its
// own pool.
type Pool struct {
	free []*Message
}

// Get returns a zeroed Message, reusing a released record when one is
// available.
//
//cenju4:hotpath
func (p *Pool) Get() *Message {
	m := p.pop()
	*m = Message{}
	return m
}

// pop returns a released record as Put left it, or a new zeroed one.
//
//cenju4:hotpath
func (p *Pool) pop() *Message {
	if p == nil {
		//cenju4:alloc-ok a nil pool opts out of recycling by contract
		return &Message{}
	}
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free = p.free[:n-1]
		return m
	}
	//cenju4:alloc-ok pool miss grows the steady-state working set once, then recycles
	return &Message{}
}

// New returns a pooled copy of proto. proto is a value, so call sites
// keep composite-literal form: pool.New(Message{Kind: ..., ...}).
//
//cenju4:hotpath
func (p *Pool) New(proto Message) *Message {
	m := p.pop()
	*m = proto
	return m
}

// Clone returns a pooled copy of m (the network's fan-out primitive).
// Cloning a released message panics: it is a use-after-release.
//
//cenju4:hotpath
func (p *Pool) Clone(m *Message) *Message {
	if m.inPool {
		panic("msg: Clone of a released message")
	}
	c := p.pop()
	*c = *m
	return c
}

// Put releases m for reuse, clearing only its Gather pointer (see
// Pool). Releasing the same record twice panics: the second owner would
// observe its message rewritten mid-flight. Put(nil) and Put on a nil
// pool are no-ops.
//
//cenju4:hotpath
func (p *Pool) Put(m *Message) {
	if p == nil || m == nil {
		return
	}
	if m.inPool {
		panic("msg: double release of a message")
	}
	if m.Gather != nil {
		m.Gather = nil // most messages carry none: skip the write barrier
	}
	m.inPool = true
	p.free = append(p.free, m)
}
