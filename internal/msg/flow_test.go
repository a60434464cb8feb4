package msg

import (
	"errors"
	"testing"
	"time"

	"repro/internal/faultinj"
	"repro/internal/sim"
)

// flowFabric is testFabric plus an attached flow plane.
func flowFabric(t *testing.T, e sim.Engine, cfg FlowConfig) *Fabric {
	t.Helper()
	f := testFabric(t, e)
	f.EnableFlow(cfg)
	return f
}

// TestCreditBoundsQueueDepth blasts one link from eight concurrent senders
// and requires the receiver's bulk backlog to stay within the sender-side
// credit account: depth is bounded by construction, not by luck.
func TestCreditBoundsQueueDepth(t *testing.T) {
	e := sim.NewEngine(sim.WithSeed(1))
	defer e.Close()
	const credits = 4
	f := flowFabric(t, e, FlowConfig{CreditsPerLink: credits})
	handled := 0
	f.Endpoint(1).Handle(TypeUser, func(p *sim.Proc, m *Message) *Message {
		handled++
		return nil
	})
	const senders, each = 8, 25
	for s := 0; s < senders; s++ {
		e.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < each; i++ {
				f.Endpoint(0).Send(p, &Message{Type: TypeUser, To: 1, Size: 256})
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if handled != senders*each {
		t.Fatalf("handled %d messages, want %d — blocking Send must never lose traffic", handled, senders*each)
	}
	if depth := f.metrics.Counter("msg.queue.maxdepth").Value(); depth > credits {
		t.Errorf("bulk queue depth reached %d, want <= %d (the credit bound)", depth, credits)
	}
	if f.metrics.Counter("msg.flow.creditblock").Value() == 0 {
		t.Error("no sender ever blocked on credits; the test did not create pressure")
	}
}

// TestTrySendShedsUnderPressure wedges the receiver's dispatcher behind a
// huge message so a queued bulk message holds the link's only credit, then
// requires TrySend to refuse deterministically while a later blocking Send
// still gets through.
func TestTrySendShedsUnderPressure(t *testing.T) {
	e := sim.NewEngine(sim.WithSeed(2))
	defer e.Close()
	f := flowFabric(t, e, FlowConfig{CreditsPerLink: 1})
	var order []int
	f.Endpoint(1).Handle(TypeUser, func(p *sim.Proc, m *Message) *Message {
		order = append(order, m.Payload.(int))
		return nil
	})
	var shedErr error
	e.Spawn("sender", func(p *sim.Proc) {
		// The huge message's recvCost stalls the dispatcher long enough for
		// the next send's credit to stay held while it waits in the queue.
		f.Endpoint(0).Send(p, &Message{Type: TypeUser, To: 1, Size: 1 << 20, Payload: 0})
		f.Endpoint(0).Send(p, &Message{Type: TypeUser, To: 1, Size: 64, Payload: 1})
		shedErr = f.Endpoint(0).TrySend(p, &Message{Type: TypeUser, To: 1, Size: 64, Payload: 2})
		f.Endpoint(0).Send(p, &Message{Type: TypeUser, To: 1, Size: 64, Payload: 3})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if shedErr == nil {
		t.Fatal("TrySend on an exhausted account returned nil, want BackpressureError")
	}
	if !IsBackpressure(shedErr) {
		t.Fatalf("TrySend error = %v, want IsBackpressure", shedErr)
	}
	var bp *BackpressureError
	if !errors.As(shedErr, &bp) || bp.Reason != "credits" {
		t.Fatalf("TrySend error = %#v, want Reason \"credits\"", shedErr)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 3 {
		t.Fatalf("handled payloads %v, want [0 1 3] (2 shed)", order)
	}
	if f.metrics.Counter("msg.flow.backpressure").Value() == 0 {
		t.Error("msg.flow.backpressure not counted for the shed")
	}
}

// TestControlLanePriority stalls the dispatcher, queues bulk traffic, then
// sends a page invalidation: the control lane must be dispatched ahead of
// every already-queued bulk message.
func TestControlLanePriority(t *testing.T) {
	e := sim.NewEngine(sim.WithSeed(3))
	defer e.Close()
	f := flowFabric(t, e, FlowConfig{CreditsPerLink: 16})
	var order []Type
	record := func(p *sim.Proc, m *Message) *Message {
		order = append(order, m.Type)
		return nil
	}
	f.Endpoint(1).Handle(TypeUser, record)
	f.Endpoint(1).Handle(TypePageInvalidate, record)
	e.Spawn("sender", func(p *sim.Proc) {
		f.Endpoint(0).Send(p, &Message{Type: TypeUser, To: 1, Size: 1 << 20})
		for i := 0; i < 4; i++ {
			f.Endpoint(0).Send(p, &Message{Type: TypeUser, To: 1, Size: 64})
		}
		f.Endpoint(0).Send(p, &Message{Type: TypePageInvalidate, To: 1, Size: 64})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 6 {
		t.Fatalf("handled %d messages, want 6", len(order))
	}
	// The huge message is already being received when the rest arrive; the
	// invalidation must overtake the four queued bulk messages.
	if order[1] != TypePageInvalidate {
		t.Fatalf("dispatch order %v: invalidation did not jump the bulk queue", order)
	}
	if f.metrics.Histogram("msg.flow.ctrlwait").Count() == 0 {
		t.Error("control-lane wait histogram never observed")
	}
}

// TestBreakerCycle drives one link through the full breaker state machine:
// three consecutive RPC failures trip it open, fast-fails follow, the cooldown
// admits a half-open probe, and the probe's success closes it.
func TestBreakerCycle(t *testing.T) {
	e := sim.NewEngine(sim.WithSeed(4))
	defer e.Close()
	plan := &faultinj.Plan{
		Seed:       1,
		Partitions: []faultinj.Partition{{A: 0, B: 1, From: 0, Until: 3 * time.Millisecond}},
	}
	f := testFabric(t, e)
	f.EnableFaults(plan, FaultConfig{RPCTimeout: 100 * time.Microsecond, RPCRetries: 1}, FaultHooks{})
	f.EnableFlow(FlowConfig{
		CreditsPerLink:  16,
		BreakerCooldown: time.Millisecond,
	})
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		return &Message{Size: 8}
	})
	var sawFastFail, sawRecovery bool
	e.Spawn("caller", func(p *sim.Proc) {
		deadline := sim.Time(20 * time.Millisecond)
		for p.Now() < deadline {
			_, err := f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: 8})
			var bp *BackpressureError
			if errors.As(err, &bp) && bp.Reason == "circuit-open" {
				sawFastFail = true
			}
			if err == nil && sawFastFail {
				sawRecovery = true
				return
			}
			p.Sleep(200 * time.Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !sawFastFail {
		t.Error("breaker never fast-failed a call while open")
	}
	if !sawRecovery {
		t.Error("breaker never recovered after the partition healed")
	}
	for _, c := range []string{"msg.flow.breaker_open", "msg.flow.breaker_halfopen", "msg.flow.breaker_close"} {
		if f.metrics.Counter(c).Value() == 0 {
			t.Errorf("%s = 0, want at least one full open/half-open/close cycle", c)
		}
	}
}

// TestCreditRefusalDoesNotTripBreaker pins the breaker's evidence rule: a
// credit-wait refusal is local congestion (the receiver is busy, not
// broken), so a burst of backpressured RPCs must leave the breaker closed
// and a later RPC — issued once the backlog drains — must succeed. Before
// the rule, three refusals opened the breaker on this
// flow-without-faults fabric and, with no path ever reporting success back
// to it, a half-open probe could never close it again.
func TestCreditRefusalDoesNotTripBreaker(t *testing.T) {
	e := sim.NewEngine(sim.WithSeed(9))
	defer e.Close()
	f := flowFabric(t, e, FlowConfig{
		CreditsPerLink: 1,
		MaxCreditWait:  50 * time.Microsecond,
	})
	f.Endpoint(1).Handle(TypeUser, func(p *sim.Proc, m *Message) *Message { return nil })
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		return &Message{Size: 8}
	})
	refused := 0
	var finalErr error
	e.Spawn("caller", func(p *sim.Proc) {
		ep := f.Endpoint(0)
		// The huge message wedges the dispatcher; the small one then holds
		// the link's only credit while queued behind it.
		ep.Send(p, &Message{Type: TypeUser, To: 1, Size: 1 << 20})
		ep.Send(p, &Message{Type: TypeUser, To: 1, Size: 64})
		for i := 0; i < 3; i++ {
			_, err := ep.Call(p, &Message{Type: TypePing, To: 1, Size: 8})
			var bp *BackpressureError
			if !errors.As(err, &bp) {
				t.Errorf("Call %d under pressure: %v, want BackpressureError", i, err)
				continue
			}
			if bp.Reason != "credits" {
				t.Errorf("Call %d refused with %q, want \"credits\" — a breaker verdict means congestion was misread as peer failure", i, bp.Reason)
			}
			refused++
		}
		// Ride out the backlog; the same link must then serve RPCs again.
		p.Sleep(3 * time.Millisecond)
		_, finalErr = ep.Call(p, &Message{Type: TypePing, To: 1, Size: 8})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if refused != 3 {
		t.Fatalf("%d calls refused under pressure, want 3", refused)
	}
	if finalErr != nil {
		t.Fatalf("Call after the backlog drained: %v, want success", finalErr)
	}
	if n := f.metrics.Counter("msg.flow.breaker_open").Value(); n != 0 {
		t.Errorf("msg.flow.breaker_open = %d, want 0 — credit refusals must not trip the breaker", n)
	}
	if n := f.metrics.Counter("msg.flow.breaker_fastfail").Value(); n != 0 {
		t.Errorf("msg.flow.breaker_fastfail = %d, want 0", n)
	}
}

// TestBreakerAbortRearmsProbe pins breakerAbort's contract: aborting a held
// half-open probe re-arms the breaker open with a fresh cooldown — so a
// later caller can run the probe for real — without touching the failure
// count, and aborting with the breaker closed is a no-op.
func TestBreakerAbortRearmsProbe(t *testing.T) {
	e := sim.NewEngine(sim.WithSeed(10))
	defer e.Close()
	f := flowFabric(t, e, FlowConfig{CreditsPerLink: 4, BreakerCooldown: time.Millisecond})
	ep := f.Endpoint(0)
	ep.breakerAbort(1)
	if st := ep.flowPeer(1); st.breaker != breakerClosed {
		t.Fatalf("abort on a closed breaker moved it to state %d, want closed", st.breaker)
	}
	st := ep.flowPeer(1)
	st.breaker = breakerHalfOpen
	st.probing = true
	st.fails = 1
	ep.breakerAbort(1)
	if st.breaker != breakerOpen || st.probing {
		t.Fatalf("abort of a held probe left (state=%d, probing=%v), want re-armed open", st.breaker, st.probing)
	}
	if st.fails != 1 {
		t.Fatalf("abort changed the failure count to %d, want it untouched at 1", st.fails)
	}
	if err := ep.breakerAllow(&Message{Type: TypePing, To: 1}); !IsBackpressure(err) {
		t.Fatalf("breakerAllow inside the re-armed cooldown = %v, want a circuit-open fast-fail", err)
	}
}

// TestRetryBudgetStopsStorm drops every request on one link from more
// concurrent callers than the retry budget has tokens, all retransmitting
// inside one budget window, and requires the budget — not the full retransmit
// schedule — to end calls: the would-be storm becomes a bounded, paced
// failure, with retransmissions never outrunning the token bucket.
func TestRetryBudgetStopsStorm(t *testing.T) {
	e := sim.NewEngine(sim.WithSeed(5))
	defer e.Close()
	plan := &faultinj.Plan{
		Seed:  1,
		Rules: []faultinj.Rule{{From: 0, To: 1, Type: int(TypePing), DropP: 1}},
	}
	f := testFabric(t, e)
	const retries = 3
	f.EnableFaults(plan, FaultConfig{RPCTimeout: 100 * time.Microsecond, RPCRetries: retries}, FaultHooks{})
	f.EnableFlow(FlowConfig{CreditsPerLink: 16})
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		return &Message{Size: 8}
	})
	// One caller's exponential backoff never drains the bucket; twice its
	// tokens, all first retransmitting at the same timeout, do.
	const callers = 2 * retryBudget
	budgetStopped := 0
	for i := 0; i < callers; i++ {
		e.Spawn("caller", func(p *sim.Proc) {
			_, err := f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: 8})
			var bp *BackpressureError
			if errors.As(err, &bp) && bp.Reason == "retry-budget" {
				budgetStopped++
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if budgetStopped == 0 {
		t.Fatal("no Call ended with BackpressureError Reason \"retry-budget\"")
	}
	// The bucket starts full and refills one token per window/budget, far
	// fewer than the callers*retries an unbudgeted storm would send.
	bound := uint64(retryBudget + e.Now().Duration()/(retryBudgetWindow/retryBudget))
	if n := f.metrics.Counter("msg.fault.retransmit").Value(); n > bound || bound >= callers*retries {
		t.Errorf("%d retransmissions in %v, want <= the budget's %d (< %d unbudgeted)", n, e.Now(), bound, callers*retries)
	}
	if f.metrics.Counter("msg.flow.budget_exhausted").Value() == 0 {
		t.Error("msg.flow.budget_exhausted not counted")
	}
}

// TestGrayDetectorHysteresis runs RPCs through a slow-link window and
// requires the peer to be classified slow while inflated and healthy again
// once the EWMA has decayed back under the recovery threshold.
func TestGrayDetectorHysteresis(t *testing.T) {
	e := sim.NewEngine(sim.WithSeed(6))
	defer e.Close()
	plan := &faultinj.Plan{
		Seed: 1,
		SlowLinks: []faultinj.SlowLink{
			{A: 0, B: 1, From: 0, Until: 5 * time.Millisecond, Extra: 800 * time.Microsecond},
		},
	}
	f := testFabric(t, e)
	f.EnableFaults(plan, FaultConfig{RPCTimeout: 10 * time.Millisecond}, FaultHooks{})
	f.EnableFlow(FlowConfig{
		CreditsPerLink: 16,
		SlowAfter:      500 * time.Microsecond,
	})
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		return &Message{Size: 8}
	})
	var slowDuring, healthyAfter bool
	e.Spawn("caller", func(p *sim.Proc) {
		ep := f.Endpoint(0)
		for i := 0; i < minRTTSamples; i++ {
			if _, err := ep.Call(p, &Message{Type: TypePing, To: 1, Size: 8}); err != nil {
				t.Errorf("Call during slow window: %v", err)
			}
		}
		slowDuring = ep.PeerHealth(1) == PeerSlow
		// Ride out the window, then let fast RTT samples decay the EWMA.
		for p.Now() < sim.Time(5*time.Millisecond) {
			p.Sleep(time.Millisecond)
		}
		for i := 0; i < 60; i++ {
			if _, err := ep.Call(p, &Message{Type: TypePing, To: 1, Size: 8}); err != nil {
				t.Errorf("Call after slow window: %v", err)
			}
		}
		healthyAfter = ep.PeerHealth(1) == PeerHealthy
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !slowDuring {
		t.Error("peer not classified slow inside the slow-link window")
	}
	if !healthyAfter {
		t.Error("peer did not recover to healthy after the window closed")
	}
	if f.metrics.Counter("msg.gray.slow").Value() == 0 || f.metrics.Counter("msg.gray.healthy").Value() == 0 {
		t.Error("gray transition counters not recorded")
	}
	if f.metrics.Counter("msg.fault.slowlink").Value() == 0 {
		t.Error("slow-link inflation never applied")
	}
}

// TestSlowShedAvoidsSlowPeer marks peer 1 slow via the gray detector, then
// requires TrySend toward it to shed while TrySend to a healthy peer
// proceeds.
func TestSlowShedAvoidsSlowPeer(t *testing.T) {
	e := sim.NewEngine(sim.WithSeed(7))
	defer e.Close()
	plan := &faultinj.Plan{
		Seed: 1,
		SlowLinks: []faultinj.SlowLink{
			{A: 0, B: 1, From: 0, Until: 50 * time.Millisecond, Extra: 800 * time.Microsecond},
		},
	}
	f := testFabric(t, e)
	f.EnableFaults(plan, FaultConfig{RPCTimeout: 10 * time.Millisecond}, FaultHooks{})
	f.EnableFlow(FlowConfig{
		CreditsPerLink: 16,
		SlowAfter:      500 * time.Microsecond,
	})
	pong := func(p *sim.Proc, m *Message) *Message { return &Message{Size: 8} }
	f.Endpoint(1).Handle(TypePing, pong)
	sink := func(p *sim.Proc, m *Message) *Message { return nil }
	f.Endpoint(1).Handle(TypeUser, sink)
	f.Endpoint(2).Handle(TypeUser, sink)
	var slowErr, healthyErr error
	e.Spawn("caller", func(p *sim.Proc) {
		ep := f.Endpoint(0)
		for i := 0; i < minRTTSamples; i++ {
			if _, err := ep.Call(p, &Message{Type: TypePing, To: 1, Size: 8}); err != nil {
				t.Errorf("Call: %v", err)
			}
		}
		slowErr = ep.TrySend(p, &Message{Type: TypeUser, To: 1, Size: 64})
		healthyErr = ep.TrySend(p, &Message{Type: TypeUser, To: 2, Size: 64})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var bp *BackpressureError
	if !errors.As(slowErr, &bp) || bp.Reason != "slow-shed" {
		t.Fatalf("TrySend to slow peer = %v, want slow-shed backpressure", slowErr)
	}
	if healthyErr != nil {
		t.Fatalf("TrySend to healthy peer = %v, want nil", healthyErr)
	}
	if f.metrics.Counter("msg.flow.shed").Value() == 0 {
		t.Error("msg.flow.shed not counted")
	}
}

// TestCrashReleasesBlockedSenders crashes the destination while senders are
// parked on its exhausted credit account: the run must quiesce — the crash
// wipe refills the account and the dead-link check eats the sends.
func TestCrashReleasesBlockedSenders(t *testing.T) {
	e := sim.NewEngine(sim.WithSeed(8))
	defer e.Close()
	plan := &faultinj.Plan{
		Seed:    1,
		Crashes: []faultinj.NodeCrash{{Node: 1, At: 2 * time.Millisecond}},
	}
	f := testFabric(t, e)
	f.EnableFaults(plan, FaultConfig{}, FaultHooks{})
	f.EnableFlow(FlowConfig{CreditsPerLink: 1})
	f.Endpoint(1).Handle(TypeUser, func(p *sim.Proc, m *Message) *Message { return nil })
	finished := 0
	for s := 0; s < 4; s++ {
		e.Spawn("sender", func(p *sim.Proc) {
			// The huge head message wedges the dispatcher past the crash
			// time, so later senders block on the single credit until the
			// crash frees them.
			for i := 0; i < 3; i++ {
				f.Endpoint(0).Send(p, &Message{Type: TypeUser, To: 1, Size: 1 << 22})
			}
			finished++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if finished != 4 {
		t.Fatalf("%d senders finished, want 4 — a crash must not wedge credit waiters", finished)
	}
}

// TestRetransmitJitterReplayIdentical pins the backoff-jitter fix: the same
// engine seed must reproduce the exact retransmit schedule (replay
// determinism), while different seeds must desynchronize it — the whole
// point of jitter.
func TestRetransmitJitterReplayIdentical(t *testing.T) {
	run := func(seed int64) (sim.Time, uint64) {
		e := sim.NewEngine(sim.WithSeed(seed))
		defer e.Close()
		plan := &faultinj.Plan{
			Seed:       1,
			Partitions: []faultinj.Partition{{A: 0, B: 1, From: 0, Until: 1500 * time.Microsecond}},
		}
		f := faultFabric(t, e, plan)
		f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
			return &Message{Size: 8}
		})
		var done sim.Time
		e.Spawn("caller", func(p *sim.Proc) {
			if _, err := f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: 8}); err != nil {
				t.Errorf("Call: %v", err)
			}
			done = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return done, f.metrics.Counter("msg.fault.retransmit").Value()
	}
	aTime, aRetx := run(42)
	bTime, bRetx := run(42)
	if aTime != bTime || aRetx != bRetx {
		t.Fatalf("same seed diverged: (%v, %d) vs (%v, %d)", aTime, aRetx, bTime, bRetx)
	}
	cTime, _ := run(43)
	dTime, _ := run(44)
	if aTime == cTime && aTime == dTime {
		t.Errorf("three seeds produced the identical completion time %v; jitter appears inert", aTime)
	}
}
