package msg

import (
	"testing"

	"repro/internal/sim"
)

// TestStaleOriginTrafficFenced models the rejoin hazard the origin-epoch
// stamp exists for: a directory RPC prepared by the old origin before its
// crash is still in flight when the successor promotes itself. The stamp is
// first-wins, so the promotion strands the message one epoch behind and
// delivery must drop it — counted under msg.fault.staleorigin — without the
// handler ever seeing it.
func TestStaleOriginTrafficFenced(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	f.EnableFailover()
	handled := 0
	f.Endpoint(1).Handle(TypeDirReplicate, func(p *sim.Proc, m *Message) *Message {
		handled++
		return nil
	})
	e.Spawn("stale-origin", func(p *sim.Proc) {
		// Prepared under epoch 1, exactly like an RPC the old origin had in
		// flight at the moment it was declared dead...
		m := &Message{Type: TypeDirReplicate, To: 1, Size: 64}
		f.stampOrigin(m, 0)
		if m.OriginEpoch != 1 {
			t.Errorf("pre-promotion stamp epoch = %d, want 1", m.OriginEpoch)
		}
		// ...then kernel 0's roles fail over before the message lands.
		f.Promote(0, 1)
		f.Endpoint(0).Send(p, m)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if handled != 0 {
		t.Error("stale-origin message reached the handler through the fence")
	}
	if got := f.Metrics().Counter("msg.fault.staleorigin").Value(); got != 1 {
		t.Errorf("msg.fault.staleorigin = %d, want 1", got)
	}
}

// TestCurrentEpochTrafficPassesFence: the fence only drops stale epochs —
// traffic stamped after the promotion, and unstamped control traffic, both
// deliver normally.
func TestCurrentEpochTrafficPassesFence(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	f.EnableFailover()
	handled := 0
	f.Endpoint(1).Handle(TypeDirReplicate, func(p *sim.Proc, m *Message) *Message {
		handled++
		return nil
	})
	e.Spawn("current-origin", func(p *sim.Proc) {
		f.Promote(0, 1)
		fresh := &Message{Type: TypeDirReplicate, To: 1, Size: 64}
		f.stampOrigin(fresh, 0)
		if fresh.OriginEpoch != 2 {
			t.Errorf("post-promotion stamp epoch = %d, want 2", fresh.OriginEpoch)
		}
		f.Endpoint(0).Send(p, fresh)
		f.Endpoint(0).Send(p, &Message{Type: TypeDirReplicate, To: 1, Size: 64})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if handled != 2 {
		t.Errorf("%d messages delivered, want 2 (fresh stamp + unstamped)", handled)
	}
	if got := f.Metrics().Counter("msg.fault.staleorigin").Value(); got != 0 {
		t.Errorf("msg.fault.staleorigin = %d, want 0", got)
	}
}

// TestPromoteEpochSemantics pins the agreement-free handover arithmetic:
// Promote bumps once per holder change (idempotent per pair, so the
// successor can call it once per promoted group), and
// OriginHolder/Successor expose the routing the retry paths rebuild from.
func TestPromoteEpochSemantics(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	if f.OriginHolder(2) != 2 {
		t.Error("detached plane must be the identity")
	}
	f.EnableFailover()
	if got := f.Successor(3); got != 0 {
		t.Errorf("Successor(3) = %d, want 0 (ring wrap)", got)
	}
	if ep := f.Promote(0, 1); ep != 2 {
		t.Errorf("first promotion epoch = %d, want 2", ep)
	}
	if ep := f.Promote(0, 1); ep != 2 {
		t.Errorf("re-promotion of the current holder bumped the epoch to %d", ep)
	}
	if got := f.OriginHolder(0); got != 1 {
		t.Errorf("OriginHolder(0) = %d, want 1", got)
	}
	if got := f.Metrics().Counter("msg.failover.promotions").Value(); got != 1 {
		t.Errorf("msg.failover.promotions = %d, want 1", got)
	}
	// A second failover of the same role moves the holder and bumps again.
	if ep := f.Promote(0, 2); ep != 3 || f.OriginHolder(0) != 2 {
		t.Errorf("second promotion gave holder %d epoch %d, want 2/3", f.OriginHolder(0), ep)
	}
}
