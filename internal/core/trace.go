package core

import (
	"fmt"

	"cenju4/internal/msg"
	"cenju4/internal/sim"
	"cenju4/internal/topology"
)

// TraceKind classifies a trace event.
type TraceKind uint8

const (
	// TraceSend: a message left this node for the network.
	TraceSend TraceKind = iota
	// TraceLocal: a message was transferred module-to-module inside the
	// controller chip.
	TraceLocal
	// TraceRecv: a message was delivered to this node.
	TraceRecv
)

func (k TraceKind) String() string {
	switch k {
	case TraceSend:
		return "send"
	case TraceLocal:
		return "local"
	case TraceRecv:
		return "recv"
	}
	return fmt.Sprintf("TraceKind(%d)", uint8(k))
}

// TraceEvent is one observed protocol action.
type TraceEvent struct {
	At   sim.Time
	Node topology.NodeID
	Kind TraceKind
	Msg  msg.Kind
	Addr topology.Addr
	// Src/Master from the message, for correlating transactions.
	Src    topology.NodeID
	Master topology.NodeID
}

func (e TraceEvent) String() string {
	return fmt.Sprintf("%8d %v %-5v %-18v %v src=%v master=%v",
		uint64(e.At), e.Node, e.Kind, e.Msg, e.Addr, e.Src, e.Master)
}

// Tracer receives protocol events. Implementations must be cheap; the
// hook is on every message path.
type Tracer func(TraceEvent)

// SetTracer installs (or removes, with nil) a protocol event tracer.
func (c *Controller) SetTracer(t Tracer) { c.trace = t }

// emit reports m to the tracer, if any. The check is small enough to
// inline into every message path; the record is built out of line.
func (c *Controller) emit(kind TraceKind, m *msg.Message) {
	if c.trace != nil {
		c.traceMsg(kind, m)
	}
}

func (c *Controller) traceMsg(kind TraceKind, m *msg.Message) {
	c.trace(TraceEvent{
		At:     c.eng.Now(),
		Node:   c.cfg.Node,
		Kind:   kind,
		Msg:    m.Kind,
		Addr:   m.Addr,
		Src:    m.Src,
		Master: m.Master,
	})
}
