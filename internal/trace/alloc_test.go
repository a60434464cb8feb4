package trace

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestSpanOpenCloseZeroAllocs pins the collector's explicit open/close path
// (StartAt/EndAt — the per-message wire-span path) at zero allocations per
// span while the preallocated store has room: records are written in place,
// and EndAt stamps by index.
func TestSpanOpenCloseZeroAllocs(t *testing.T) {
	c := NewCollector()
	allocs := testing.AllocsPerRun(200, func() {
		id := c.StartAt("wire.ping", 0, 0, sim.Time(1000))
		c.EndAt(id, sim.Time(2000))
	})
	if allocs != 0 {
		t.Fatalf("StartAt/EndAt allocates %v allocs/op within preallocated capacity, want 0", allocs)
	}
}

// TestScopeBeginEndZeroAllocs covers the process-bound form (Begin/End via
// Scope): the Scope is a value, so opening and closing a span from a running
// process must not allocate either.
func TestScopeBeginEndZeroAllocs(t *testing.T) {
	c := NewCollector()
	e := sim.NewEngine()
	defer e.Close()
	e.Spawn("spanner", func(p *sim.Proc) {
		for {
			s := c.Begin(p, "op.tick", 0)
			s.End()
			p.Sleep(time.Microsecond)
		}
	})
	if err := e.RunFor(50 * time.Microsecond); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.RunFor(5 * time.Microsecond); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Begin/End allocates %v allocs/op within preallocated capacity, want 0", allocs)
	}
}
