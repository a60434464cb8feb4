package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	if id := c.StartAt("x", 0, 0, 0); id != 0 {
		t.Fatalf("nil StartAt = %d", id)
	}
	c.EndAt(1, 10) // must not panic
	if c.Len() != 0 || c.Spans() != nil || c.RootNames() != nil {
		t.Fatal("nil collector leaked state")
	}
	att := c.CriticalPath("x")
	if att.Count != 0 || att.Total != 0 {
		t.Fatalf("nil CriticalPath = %+v", att)
	}
	var zero Scope
	zero.End() // must not panic
}

func TestScopeNestingRestoresProcSpan(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := NewCollector()
	e.Spawn("op", func(p *sim.Proc) {
		outer := c.Begin(p, "outer", 0)
		if p.Span() != uint64(outer.ID()) {
			t.Errorf("proc span = %d, want %d", p.Span(), outer.ID())
		}
		p.Sleep(10 * time.Nanosecond)
		inner := c.Begin(p, "inner", 0)
		p.Sleep(5 * time.Nanosecond)
		inner.End()
		if p.Span() != uint64(outer.ID()) {
			t.Errorf("after inner.End proc span = %d, want %d", p.Span(), outer.ID())
		}
		outer.End()
		if p.Span() != 0 {
			t.Errorf("after outer.End proc span = %d, want 0", p.Span())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].Name != "outer" || spans[0].Parent != 0 {
		t.Fatalf("outer span = %+v", spans[0])
	}
	if spans[1].Name != "inner" || spans[1].Parent != spans[0].ID {
		t.Fatalf("inner span = %+v", spans[1])
	}
	if spans[1].Duration() != 5*time.Nanosecond {
		t.Fatalf("inner duration = %v", spans[1].Duration())
	}
}

func TestEndAtFirstWins(t *testing.T) {
	c := NewCollector()
	id := c.StartAt("wire.x", 0, 0, 100)
	c.EndAt(id, 200)
	c.EndAt(id, 999) // duplicate delivery of a retransmitted copy
	if d := c.Spans()[0].Duration(); d != 100*time.Nanosecond {
		t.Fatalf("duration = %v, want 100ns", d)
	}
}

func TestOpenSpanHasZeroDuration(t *testing.T) {
	c := NewCollector()
	c.StartAt("wire.lost", 0, 0, 100)
	if d := c.Spans()[0].Duration(); d != 0 {
		t.Fatalf("open span duration = %v", d)
	}
	if !strings.Contains(c.Spans()[0].String(), "open") {
		t.Fatalf("open span string: %s", c.Spans()[0])
	}
}

// buildMigrationLikeTrace hand-builds a two-kernel operation tree shaped
// like a migration: root with a local phase, an RPC whose wire legs and
// remote handler nest under it, and a registration leg.
func buildMigrationLikeTrace() *Collector {
	c := NewCollector()
	root := c.StartAt("core.migrate", 0, 0, 0)
	ckpt := c.StartAt("tg.checkpoint", 0, root, 100)
	c.EndAt(ckpt, 400)
	rpc := c.StartAt("rpc.migrate", 0, root, 400)
	wire := c.StartAt("wire.migrate", 0, rpc, 410)
	c.EndAt(wire, 600)
	h := c.StartAt("handle.migrate", 1, rpc, 650)
	setup := c.StartAt("tg.setup", 1, h, 660)
	c.EndAt(setup, 800)
	imp := c.StartAt("tg.import", 1, h, 800)
	c.EndAt(imp, 900)
	c.EndAt(h, 950)
	wireBack := c.StartAt("wire.migrate.reply", 1, h, 940)
	c.EndAt(wireBack, 1100)
	c.EndAt(rpc, 1150)
	reg := c.StartAt("tg.register", 0, root, 1150)
	c.EndAt(reg, 1400)
	c.EndAt(root, 1500)
	return c
}

func TestCriticalPathLegsSumToRoot(t *testing.T) {
	c := buildMigrationLikeTrace()
	att := c.CriticalPath("core.migrate")
	if att.Count != 1 {
		t.Fatalf("count = %d", att.Count)
	}
	if att.Total != 1500*time.Nanosecond {
		t.Fatalf("total = %v", att.Total)
	}
	if att.LegSum() != att.Total {
		t.Fatalf("legs sum to %v, root is %v\nlegs: %+v", att.LegSum(), att.Total, att.Legs)
	}
	// Spot-check a few attributions: the checkpoint leg, the remote setup
	// under the RPC, and the root's own (uncovered) time.
	want := map[string]time.Duration{
		"tg.checkpoint":       300,
		"tg.setup":            140,
		"tg.register":         250,
		"core.migrate (self)": 200, // 0-100 head + 1400-1500 tail
	}
	got := make(map[string]time.Duration)
	for _, l := range att.Legs {
		got[l.Name] = l.Total
	}
	for name, ns := range want {
		if got[name] != ns*time.Nanosecond {
			t.Errorf("leg %q = %v, want %v (legs: %+v)", name, got[name], ns*time.Nanosecond, att.Legs)
		}
	}
}

func TestCriticalPathAggregatesAcrossOps(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 3; i++ {
		base := sim.Time(i * 1000)
		root := c.StartAt("vm.fault", 0, 0, base)
		dir := c.StartAt("vm.dir", 0, root, base+10)
		c.EndAt(dir, base+60)
		c.EndAt(root, base+100)
	}
	att := c.CriticalPath("vm.fault")
	if att.Count != 3 || att.Total != 300*time.Nanosecond {
		t.Fatalf("att = %+v", att)
	}
	if att.LegSum() != att.Total {
		t.Fatalf("legs sum to %v, total %v", att.LegSum(), att.Total)
	}
	tbl := att.Table()
	if tbl.Rows() != len(att.Legs)+1 {
		t.Fatalf("table rows = %d", tbl.Rows())
	}
	if !strings.Contains(tbl.String(), "vm.dir") {
		t.Fatalf("table missing leg:\n%s", tbl)
	}
}

func TestCriticalPathOverlappingChildrenClip(t *testing.T) {
	// Two children overlap (parallel fan-out); the second must only claim
	// the portion past the first, never double-counting time.
	c := NewCollector()
	root := c.StartAt("op", 0, 0, 0)
	a := c.StartAt("rpc.a", 0, root, 10)
	c.EndAt(a, 80)
	b := c.StartAt("rpc.b", 0, root, 20)
	c.EndAt(b, 100)
	c.EndAt(root, 120)
	att := c.CriticalPath("op")
	if att.LegSum() != att.Total {
		t.Fatalf("legs sum to %v, total %v: %+v", att.LegSum(), att.Total, att.Legs)
	}
	got := make(map[string]time.Duration)
	for _, l := range att.Legs {
		got[l.Name] = l.Total
	}
	if got["rpc.a"] != 70 || got["rpc.b"] != 20 {
		t.Fatalf("overlap clipping wrong: %+v", att.Legs)
	}
}

func TestChromeTraceValidAndDeterministic(t *testing.T) {
	var first []byte
	for i := 0; i < 2; i++ {
		c := buildMigrationLikeTrace()
		var buf bytes.Buffer
		if err := c.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		if err := ValidateChromeTrace(buf.Bytes()); err != nil {
			t.Fatalf("%v\n%s", err, buf.String())
		}
		if i == 0 {
			first = append([]byte(nil), buf.Bytes()...)
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatal("identical collectors exported different bytes")
		}
	}
	if !strings.Contains(string(first), "\"tid\":1") {
		t.Fatalf("spans not grouped under root tid:\n%s", first)
	}
}

func TestChromeTraceClampsOpenSpans(t *testing.T) {
	c := NewCollector()
	root := c.StartAt("op", 0, 0, 0)
	c.StartAt("wire.lost", 0, root, 50)
	c.EndAt(root, 200)
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wire.lost (open)") {
		t.Fatalf("open span not marked:\n%s", buf.String())
	}
}

func TestWriteTimelineElides(t *testing.T) {
	c := buildMigrationLikeTrace()
	var buf bytes.Buffer
	if err := c.WriteTimeline(&buf, 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "earlier spans elided") {
		t.Fatalf("timeline missing elision note:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != 4 { // note + 3 spans
		t.Fatalf("timeline lines = %d:\n%s", got, out)
	}
}

func TestRootNamesSortedAndDistinct(t *testing.T) {
	c := NewCollector()
	c.StartAt("vm.fault", 0, 0, 0)
	c.StartAt("core.migrate", 0, 0, 10)
	c.StartAt("vm.fault", 1, 0, 20)
	names := c.RootNames()
	if len(names) != 2 || names[0] != "core.migrate" || names[1] != "vm.fault" {
		t.Fatalf("RootNames = %v", names)
	}
}
