package msg

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestRPCSpanTree drives one real RPC with the causal tracer attached and
// checks the span tree it leaves behind: an rpc root on the caller, the
// request's wire leg and the remote handler parented under it, and the
// reply's wire leg under the handler — the cross-kernel parentage the
// critical-path profiler depends on.
func TestRPCSpanTree(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	col := trace.NewCollector()
	f.SetCollector(col)
	f.Endpoint(2).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		p.Sleep(time.Microsecond) // give the handler span extent
		return &Message{Size: 8}
	})
	e.Spawn("caller", func(p *sim.Proc) {
		if _, err := f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 2, Size: 64}); err != nil {
			t.Errorf("Call: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	byName := make(map[string]trace.Span)
	for _, s := range col.Spans() {
		byName[s.Name] = s
	}
	rpc, ok := byName["rpc.ping"]
	if !ok || rpc.Parent != 0 {
		t.Fatalf("rpc.ping missing or not a root: %+v (spans: %v)", rpc, col.Spans())
	}
	wire, ok := byName["wire.ping"]
	if !ok || wire.Parent != rpc.ID {
		t.Fatalf("wire.ping not under rpc.ping: %+v", wire)
	}
	handle, ok := byName["handle.ping"]
	if !ok || handle.Parent != rpc.ID {
		t.Fatalf("handle.ping not under rpc.ping: %+v", handle)
	}
	if handle.Node != 2 || rpc.Node != 0 {
		t.Fatalf("span nodes wrong: rpc on %d, handle on %d", rpc.Node, handle.Node)
	}
	reply, ok := byName["wire.ping.reply"]
	if !ok || reply.Parent != handle.ID {
		t.Fatalf("wire.ping.reply not under handle.ping: %+v", reply)
	}
	// The handler span covers committing the reply, a send cost after the
	// handler staged it (and returned).
	if got, want := handle.End.Sub(reply.Begin), f.sendCost(&Message{From: 2, To: 0, Size: 8}); got != want {
		t.Errorf("handle.ping ends %v after the reply was staged, want the reply's send cost %v", got, want)
	}
	// Every span closed, and nesting is temporally consistent.
	for name, s := range byName {
		if s.End < s.Begin {
			t.Errorf("span %s left open: %+v", name, s)
		}
	}
	if !(rpc.Begin <= wire.Begin && wire.End <= handle.Begin && handle.End <= rpc.End) {
		t.Errorf("span times out of order: rpc=%v wire=%v handle=%v", rpc, wire, handle)
	}

	// The same trace must attribute cleanly: legs sum exactly to the root.
	att := col.CriticalPath("rpc.ping")
	if att.Count != 1 || att.LegSum() != att.Total || att.Total == 0 {
		t.Fatalf("attribution = %+v", att)
	}
	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestSpanFreeWhenDetached asserts the zero-cost-detached guarantee at the
// message layer: with no collector, messages carry zero span IDs and the
// run's virtual timeline is identical to a traced run's — attaching the
// tracer records the schedule, never perturbs it.
func TestSpanFreeWhenDetached(t *testing.T) {
	run := func(col *trace.Collector) (sim.Time, *Message) {
		e := sim.NewEngine()
		defer e.Close()
		f := testFabric(t, e)
		f.SetCollector(col)
		var delivered *Message
		f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
			delivered = m
			return &Message{Size: 8}
		})
		e.Spawn("caller", func(p *sim.Proc) {
			if _, err := f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: 64}); err != nil {
				t.Errorf("Call: %v", err)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return e.Now(), delivered
	}
	plainEnd, plainMsg := run(nil)
	tracedEnd, tracedMsg := run(trace.NewCollector())
	if plainMsg.Span != 0 || plainMsg.SpanParent != 0 {
		t.Fatalf("detached run stamped spans: %+v", plainMsg)
	}
	if tracedMsg.Span == 0 {
		t.Fatalf("traced run did not stamp spans: %+v", tracedMsg)
	}
	if plainEnd != tracedEnd {
		t.Fatalf("tracer changed the schedule: detached end %v, traced end %v", plainEnd, tracedEnd)
	}
}
