package trace

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// This file turns a Collector's flat span list into per-operation trees and
// computes each operation's critical path: for every instant of a root
// span's extent, which leg of the distributed protocol the time belongs to.
// The attribution is exact by construction — the legs of one operation sum
// to the root's duration, with time no child covers charged to the parent
// as "<name> (self)" — so a breakdown table can be checked against the
// end-to-end number instead of trusted.

// OpNode is one span with its children resolved, forming an operation tree.
type OpNode struct {
	Span
	// Children are the node's child spans, sorted by Begin then ID so a
	// walk over them is deterministic.
	Children []*OpNode
}

// buildOps assembles the spans into operation trees and returns the roots
// (spans with no parent, or whose parent is missing — e.g. truncated dumps)
// in ID order.
func buildOps(spans []Span) []*OpNode {
	nodes := make(map[SpanID]*OpNode, len(spans))
	for _, s := range spans {
		nodes[s.ID] = &OpNode{Span: s}
	}
	var roots []*OpNode
	for _, s := range spans { // spans are in ID order; iteration is deterministic
		n := nodes[s.ID]
		if parent, ok := nodes[s.Parent]; ok && s.Parent != 0 {
			parent.Children = append(parent.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	// Each iteration sorts only its own node's child list; no ordering
	// crosses iterations, so map order cannot reach the output.
	//popcornvet:allow detorder per-node child sort is independent of visit order
	for _, n := range nodes {
		sort.Slice(n.Children, func(i, j int) bool {
			if n.Children[i].Begin != n.Children[j].Begin {
				return n.Children[i].Begin < n.Children[j].Begin
			}
			return n.Children[i].ID < n.Children[j].ID
		})
	}
	return roots
}

// Leg is one named slice of an operation's critical path.
type Leg struct {
	// Name is the span name the time is attributed to; "<name> (self)" is
	// time inside a span that none of its children cover.
	Name string
	// Total is the accumulated virtual time across every traced operation
	// of the root's kind.
	Total time.Duration
}

// Attribution is the critical-path breakdown for one kind of operation.
type Attribution struct {
	// Root is the root span name the breakdown describes (e.g.
	// "core.migrate").
	Root string
	// Count is how many operations of this kind the trace contains.
	Count int
	// Legs are the path's slices in first-appearance order; they sum to
	// Total exactly.
	Legs []Leg
	// Total is the accumulated end-to-end duration of every counted
	// operation.
	Total time.Duration
}

// legAccum aggregates leg durations by name, preserving first-touch order
// so the output is deterministic without depending on map iteration.
type legAccum struct {
	order []string
	total map[string]time.Duration
}

func (a *legAccum) add(name string, d time.Duration) {
	if d <= 0 {
		return
	}
	if _, ok := a.total[name]; !ok {
		a.order = append(a.order, name)
	}
	a.total[name] += d
}

// clampEnd resolves a span's effective end within its parent's window: an
// open span (never delivered / never ended) extends to the window's end.
func clampEnd(s Span, windowEnd sim.Time) sim.Time {
	if s.End < s.Begin {
		return windowEnd
	}
	if s.End > windowEnd {
		return windowEnd
	}
	return s.End
}

// walk attributes the window [begin, end] of node n: children claim their
// (clipped, non-overlapping — first-come wins) sub-windows recursively, and
// every instant no child covers is n's own time. The greedy cursor walk is
// what makes the legs sum exactly to the window.
func walk(n *OpNode, begin, end sim.Time, acc *legAccum) {
	self := n.Name
	if len(n.Children) > 0 {
		self = n.Name + " (self)"
	}
	cursor := begin
	for _, c := range n.Children {
		cb := c.Begin
		if cb < cursor {
			cb = cursor
		}
		ce := clampEnd(c.Span, end)
		if ce <= cb {
			continue // fully overlapped by an earlier sibling, or outside the window
		}
		if cb > cursor {
			acc.add(self, cb.Sub(cursor))
		}
		walk(c, cb, ce, acc)
		cursor = ce
	}
	if cursor < end {
		acc.add(self, end.Sub(cursor))
	}
}

// CriticalPath computes the aggregated critical-path breakdown for every
// root span named rootName. Open roots (operations still in flight when the
// run ended) are skipped. The legs sum to Total exactly.
func (c *Collector) CriticalPath(rootName string) Attribution {
	att := Attribution{Root: rootName}
	if c == nil {
		return att
	}
	acc := &legAccum{total: make(map[string]time.Duration)}
	for _, root := range buildOps(c.spans) {
		if root.Name != rootName || root.End < root.Begin {
			continue
		}
		att.Count++
		att.Total += root.End.Sub(root.Begin)
		walk(root, root.Begin, root.End, acc)
	}
	for _, name := range acc.order {
		att.Legs = append(att.Legs, Leg{Name: name, Total: acc.total[name]})
	}
	return att
}

// LegSum returns the sum of the attribution's legs; it equals Total by
// construction, and tests assert that.
func (a Attribution) LegSum() time.Duration {
	var sum time.Duration
	for _, l := range a.Legs {
		sum += l.Total
	}
	return sum
}

// Table renders the attribution as a critical-path table: one row per leg
// with its share of the end-to-end time and its mean per operation, plus a
// total row the legs sum to.
func (a Attribution) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("critical path: %s (%d ops)", a.Root, a.Count),
		"leg", "total", "mean/op", "share",
	)
	for _, l := range a.Legs {
		t.AddRow(l.Name, l.Total.String(), meanPerOp(l.Total, a.Count), share(l.Total, a.Total))
	}
	t.AddRow("total", a.Total.String(), meanPerOp(a.Total, a.Count), share(a.Total, a.Total))
	return t
}

func meanPerOp(d time.Duration, count int) string {
	if count == 0 {
		return "-"
	}
	return (d / time.Duration(count)).String()
}

func share(d, total time.Duration) string {
	if total <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(d)/float64(total))
}
