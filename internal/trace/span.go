// Package trace is the run recorder: a causal span collector that connects
// a request on kernel A to its grant on kernel B. It records *intervals* with
// parent links, so a distributed operation (a migration, a page fault, a
// futex hand-off) assembles into one tree spanning every kernel it touched,
// and a failing run's last spans are its timeline.
package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// Determinism rules (DESIGN.md §10): spans carry only virtual-time stamps
// already produced by the simulation; the collector schedules no events,
// consumes no randomness, and allocates IDs in event order — so for a fixed
// seed every dump is byte-identical, and an attached collector does not
// change a single simulated number. Detached, the protocol layers pay one
// nil check per potential span (the sanitizer's pattern).

// SpanID identifies one span within a Collector. Zero means "no span" and
// is never allocated.
type SpanID uint64

// openEnd marks a span whose End has not been stamped yet (a message still
// in flight, or one dropped by the fault plane). Exporters clamp it.
const openEnd = sim.Time(-1)

// Span is one named interval of a distributed operation: a protocol phase,
// an RPC round trip, a message's wire transit, or a handler execution.
type Span struct {
	// ID is the collector-unique span identifier (allocation order).
	ID SpanID
	// Parent is the span this one nests under; zero for an operation root.
	Parent SpanID
	// Name is the span's taxonomy name ("core.migrate", "rpc.page-fetch",
	// "wire.migrate", "handle.futex-op", "tg.checkpoint", ...).
	Name string
	// Node is the kernel the span executed on (the sender for wire legs;
	// -1 if no kernel applies).
	Node int
	// Begin and End are the span's virtual-time bounds. End is negative
	// while the span is still open (never ended: in-flight or dropped).
	Begin, End sim.Time
}

// String renders one span for timeline dumps.
func (s Span) String() string {
	end := "open"
	if s.End >= s.Begin {
		end = s.End.String()
	}
	return fmt.Sprintf("%12v → %-12s k%-2d %-24s id=%d parent=%d", s.Begin, end, s.Node, s.Name, s.ID, s.Parent)
}

// Collector accumulates causal spans for one run. All methods are safe on a
// nil receiver (they become no-ops returning zero values), so protocol code
// may hold a nil *Collector when tracing is detached.
type Collector struct {
	spans []Span
}

// NewCollector returns an empty span collector. The span store starts with
// room for a batch of records so early tracing doesn't reallocate per span;
// past that it grows by the usual amortized doubling.
func NewCollector() *Collector { return &Collector{spans: make([]Span, 0, 1024)} }

// Len returns how many spans have been recorded.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	return len(c.spans)
}

// Spans returns a copy of every recorded span in ID (allocation) order.
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	return append([]Span(nil), c.spans...)
}

// StartAt opens a span explicitly, for legs that no single process carries
// (a message's wire transit). The caller later stamps the end with EndAt.
// Span records live in one flat slice indexed by ID — opening a span writes
// a struct in place; only slice growth (amortized, preallocated by
// NewCollector) ever allocates.
//
//popcornvet:hotpath
func (c *Collector) StartAt(name string, node int, parent SpanID, at sim.Time) SpanID {
	if c == nil {
		return 0
	}
	id := SpanID(len(c.spans) + 1)
	// Span-store growth is amortized; NewCollector preallocates the common case.
	c.spans = append(c.spans, Span{ID: id, Parent: parent, Name: name, Node: node, Begin: at, End: openEnd})
	return id
}

// EndAt stamps the end of an explicitly opened span. First stamp wins:
// duplicate deliveries of a retransmitted message end the original wire
// span once, and later copies are no-ops. Unknown or zero IDs are ignored.
//
//popcornvet:hotpath
func (c *Collector) EndAt(id SpanID, at sim.Time) {
	if c == nil || id == 0 || int(id) > len(c.spans) {
		return
	}
	sp := &c.spans[id-1]
	if sp.End == openEnd {
		sp.End = at
	}
}

// Scope is an open span bound to the process executing it; End closes the
// span and restores the process's previous current span. The zero Scope is
// a no-op, so detached call sites need no branches around End.
type Scope struct {
	c    *Collector
	p    *sim.Proc
	id   SpanID
	prev uint64
}

// ID returns the scope's span ID (zero for a detached scope).
func (s Scope) ID() SpanID { return s.id }

// End stamps the span's end at the process's current virtual time and makes
// the enclosing span current again.
func (s Scope) End() {
	if s.c == nil {
		return
	}
	s.c.EndAt(s.id, s.p.Now())
	s.p.SetSpan(s.prev)
}

// Begin opens a span named name on the given kernel as a child of p's
// current span, and makes it p's current span until the returned Scope
// ends. This is how protocol phases running inside one process nest.
//
//popcornvet:hotpath
func (c *Collector) Begin(p *sim.Proc, name string, node int) Scope {
	if c == nil {
		return Scope{}
	}
	return c.BeginUnder(p, name, node, SpanID(p.Span()))
}

// BeginUnder is Begin with an explicit parent, for spans whose causal
// parent lives on another kernel: a message handler nests under the
// *sender's* operation span (carried in the message), not under whatever
// spawned it on the receiving kernel.
//
//popcornvet:hotpath
func (c *Collector) BeginUnder(p *sim.Proc, name string, node int, parent SpanID) Scope {
	if c == nil {
		return Scope{}
	}
	id := c.StartAt(name, node, parent, p.Now())
	prev := p.Span()
	p.SetSpan(uint64(id))
	return Scope{c: c, p: p, id: id, prev: prev}
}

// RootNames returns the distinct names of root spans (Parent == 0), sorted,
// so tools can enumerate the operations a run contains deterministically.
func (c *Collector) RootNames() []string {
	if c == nil {
		return nil
	}
	seen := make(map[string]bool)
	var names []string
	for _, s := range c.spans {
		if s.Parent == 0 && !seen[s.Name] {
			seen[s.Name] = true
			names = append(names, s.Name)
		}
	}
	sort.Strings(names)
	return names
}

// TailSpans is how many spans a failure timeline or a run report shows.
const TailSpans = 40

// WriteTimeline writes the last n spans by begin time (all of them when
// n <= 0), one per line — the failure-timeline view the chaos soak prints
// when a seed breaks an invariant.
func (c *Collector) WriteTimeline(w io.Writer, n int) error {
	spans := c.Spans()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Begin != spans[j].Begin {
			return spans[i].Begin < spans[j].Begin
		}
		return spans[i].ID < spans[j].ID
	})
	if n > 0 && len(spans) > n {
		if _, err := fmt.Fprintf(w, "(... %d earlier spans elided)\n", len(spans)-n); err != nil {
			return err
		}
		spans = spans[len(spans)-n:]
	}
	for _, s := range spans {
		if _, err := fmt.Fprintln(w, s); err != nil {
			return err
		}
	}
	return nil
}
