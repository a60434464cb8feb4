package msg

import (
	"maps"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinj"
	"repro/internal/sim"
)

// exitRun is one run of TestEveryExitPaysItsDebts: a fabric with the flow and
// fault planes attached and m, one credited bulk message from kernel 0 to
// kernel 1 that the case arranges to die inside the observation window.
type exitRun struct {
	e sim.Engine
	f *Fabric
	m *Message
	// held records that m took a link credit on its way in: the debt.
	held bool
}

// send is kernel 0 sending m one-way.
func (r *exitRun) send(p *sim.Proc) {
	r.f.Endpoint(0).Send(p, r.m)
}

// MsgSent notes whether m was admitted under a credit; announce calls it
// right after admission.
func (r *exitRun) MsgSent(_ *sim.Proc, m *Message) {
	if m == r.m {
		r.held = m.flowCredit
	}
}

func (r *exitRun) MsgDelivered(*sim.Proc, *Message) {}

// faultCounters reads every machine-wide msg.fault.* counter.
func faultCounters(f *Fabric) map[string]uint64 {
	got := make(map[string]uint64)
	for _, name := range f.metrics.Names() {
		// Per-link variants end in .k<from>-k<to>.
		if strings.HasPrefix(name, "msg.fault.") && !strings.Contains(name, ".k") {
			got[name] = f.metrics.Counter(name).Value()
		}
	}
	return got
}

// TestEveryExitPaysItsDebts kills one credited message each way a message can
// die and checks the books after every death: the step that kills it moves
// the expected fault counters and no other, takes the credit flag off the
// message, and at quiescence every link's account is back at CreditsPerLink
// with nobody queued on it.
//
// Every case dies inside (90µs, 190µs]. Crashes land at 20µs and heals at
// 50µs, so the heartbeat rounds they start (one at once, the next a period —
// 200µs — later) and the rejoin handshake fall outside the window, and what
// the counters read across it is the one death.
func TestEveryExitPaysItsDebts(t *testing.T) {
	const (
		windowOpens  = 90 * time.Microsecond
		windowCloses = 190 * time.Microsecond
		crashAt      = 20 * time.Microsecond
		healAt       = 50 * time.Microsecond
	)
	// inFlight delays what kernel 0 commits to kernel 1 in the run's first
	// 10µs by 120µs: the message under test spends the scenario in flight and
	// arrives inside the window.
	inFlight := faultinj.SlowLink{A: 0, B: 1, From: 0, Until: 10 * time.Microsecond, Extra: 120 * time.Microsecond}
	cases := []struct {
		name     string
		plan     faultinj.Plan
		fcfg     FaultConfig
		hooks    FaultHooks
		failover bool
		// arrange starts whatever sends m and makes it die.
		arrange func(r *exitRun)
		// want is what the death adds to the msg.fault.* counters.
		want map[string]uint64
		// handled is how often kernel 1's handler has run by quiescence.
		handled int
	}{
		{
			name:     "stale origin-epoch",
			plan:     faultinj.Plan{SlowLinks: []faultinj.SlowLink{inFlight}},
			failover: true,
			arrange: func(r *exitRun) {
				r.e.Spawn("sender", func(p *sim.Proc) {
					r.f.stampOrigin(r.m, 1)
					r.send(p)
				})
				r.e.Schedule(healAt, func() { r.f.Promote(1, 2) })
			},
			want: map[string]uint64{"msg.fault.staleorigin": 1},
		},
		{
			// route checks the link before it delivers, so only a delivery
			// handed straight to the fabric finds its destination dead.
			name: "dead destination",
			plan: faultinj.Plan{Crashes: []faultinj.NodeCrash{{Node: 1, At: crashAt}}},
			arrange: func(r *exitRun) {
				r.e.Spawn("sender", func(p *sim.Proc) {
					ep := r.f.Endpoint(0)
					if err := ep.flowAdmit(p, r.m, -1, false); err != nil {
						t.Errorf("flowAdmit: %v", err)
					}
					r.held = r.m.flowCredit
					ep.prepare(r.m)
					p.Sleep(120 * time.Microsecond)
					r.f.deliver(r.m)
				})
			},
			want: map[string]uint64{},
		},
		{
			name: "left incarnation",
			plan: faultinj.Plan{
				SlowLinks: []faultinj.SlowLink{inFlight},
				Crashes:   []faultinj.NodeCrash{{Node: 1, At: crashAt}},
				Heals:     []faultinj.NodeHeal{{Node: 1, At: healAt}},
			},
			arrange: func(r *exitRun) { r.e.Spawn("sender", r.send) },
			want:    map[string]uint64{"msg.fault.fenced": 1},
		},
		{
			// Kernel 0 reboots and its fresh incarnation sends m while kernel
			// 1's side of the rejoin handshake is still busy reclaiming the
			// old incarnation's state (the hook below), so m arrives stamped
			// with an incarnation kernel 1 has not admitted.
			name: "unadmitted incarnation",
			plan: faultinj.Plan{
				SlowLinks: []faultinj.SlowLink{{A: 0, B: 1, From: 55 * time.Microsecond, Until: 70 * time.Microsecond, Extra: 60 * time.Microsecond}},
				Crashes:   []faultinj.NodeCrash{{Node: 0, At: crashAt}},
				Heals:     []faultinj.NodeHeal{{Node: 0, At: healAt}},
			},
			hooks: FaultHooks{PeerDead: func(p *sim.Proc, _, _ NodeID) { p.Sleep(300 * time.Microsecond) }},
			arrange: func(r *exitRun) {
				r.e.Spawn("sender", func(p *sim.Proc) {
					p.Sleep(60 * time.Microsecond)
					r.send(p)
				})
			},
			want: map[string]uint64{"msg.fault.unadmitted": 1},
		},
		{
			name: "dead link",
			plan: faultinj.Plan{Crashes: []faultinj.NodeCrash{{Node: 1, At: crashAt}}},
			arrange: func(r *exitRun) {
				r.e.Spawn("sender", func(p *sim.Proc) {
					p.Sleep(120 * time.Microsecond)
					r.send(p)
				})
			},
			want: map[string]uint64{"msg.fault.dead-link": 1},
		},
		{
			// Three redeliveries 25, 50 and 75µs apart: the last finds the
			// partition still up at about 150µs and gives the message up.
			name:    "partition with redelivery exhausted",
			plan:    faultinj.Plan{Partitions: []faultinj.Partition{{A: 0, B: 1, From: 0, Until: 10 * time.Millisecond}}},
			fcfg:    FaultConfig{SendRetries: 3, SendRetryEvery: 25 * time.Microsecond},
			arrange: func(r *exitRun) { r.e.Spawn("sender", r.send) },
			want:    map[string]uint64{"msg.fault.partition": 1, "msg.fault.lost": 1},
		},
		{
			// Dropped at once and redelivered 100µs later, by when kernel 1
			// has died: the redelivery ends at the dead-link check.
			name: "redelivery onto a dead link",
			plan: faultinj.Plan{
				Partitions: []faultinj.Partition{{A: 0, B: 1, From: 0, Until: 10 * time.Millisecond}},
				Crashes:    []faultinj.NodeCrash{{Node: 1, At: crashAt}},
			},
			fcfg:    FaultConfig{SendRetries: 3, SendRetryEvery: 100 * time.Microsecond},
			arrange: func(r *exitRun) { r.e.Spawn("sender", r.send) },
			want:    map[string]uint64{"msg.fault.dead-link": 1},
		},
		{
			name: "delayed then crashed",
			plan: faultinj.Plan{
				SlowLinks: []faultinj.SlowLink{inFlight},
				Crashes:   []faultinj.NodeCrash{{Node: 1, At: crashAt}},
			},
			arrange: func(r *exitRun) { r.e.Spawn("sender", r.send) },
			want:    map[string]uint64{},
		},
		{
			// The request is lost to the partition and its credit freed at
			// once; the caller's retransmission, a timeout later, gets through.
			name: "dropped RPC request",
			plan: faultinj.Plan{Partitions: []faultinj.Partition{{A: 0, B: 1, From: 0, Until: 300 * time.Microsecond}}},
			arrange: func(r *exitRun) {
				r.e.Spawn("caller", func(p *sim.Proc) {
					p.Sleep(120 * time.Microsecond)
					if _, err := r.f.Endpoint(0).Call(p, r.m); err != nil {
						t.Errorf("Call: %v", err)
					}
				})
			},
			want:    map[string]uint64{"msg.fault.partition": 1},
			handled: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := sim.NewEngine()
			defer e.Close()
			f := flowFabric(t, e, FlowConfig{CreditsPerLink: 2})
			c.plan.Seed = 1
			f.EnableFaults(&c.plan, c.fcfg, c.hooks)
			if c.failover {
				f.EnableFailover()
			}
			handled := 0
			f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
				handled++
				return &Message{Size: 8} // only the RPC case's retransmission ever gets here
			})
			r := &exitRun{e: e, f: f, m: &Message{Type: TypePing, To: 1, Size: 64}}
			f.SetObserver(r)
			c.arrange(r)
			if err := e.RunUntil(sim.Time(windowOpens)); err != nil {
				t.Fatalf("RunUntil: %v", err)
			}
			before := faultCounters(f)
			if err := e.RunUntil(sim.Time(windowCloses)); err != nil {
				t.Fatalf("RunUntil: %v", err)
			}
			moved := faultCounters(f)
			for name, v := range moved {
				if moved[name] = v - before[name]; moved[name] == 0 {
					delete(moved, name)
				}
			}
			if !maps.Equal(moved, c.want) {
				t.Errorf("the death moved %v, want %v", moved, c.want)
			}
			if !r.held {
				t.Error("the message never held a credit: the case does not exercise the debt")
			}
			if r.m.flowCredit {
				t.Error("the dead message still holds its credit")
			}
			if handled != 0 {
				t.Errorf("handler ran %d times inside the window, want the message dead", handled)
			}
			if err := e.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if handled != c.handled {
				t.Errorf("handler ran %d times by quiescence, want %d", handled, c.handled)
			}
			checkCreditsRestored(t, f)
		})
	}
}

// checkCreditsRestored asserts that every link's credit account is full and
// has no sender queued on it.
func checkCreditsRestored(t *testing.T, f *Fabric) {
	t.Helper()
	for i := range f.flow.links {
		lk := &f.flow.links[i]
		if lk.credits != f.flow.cfg.CreditsPerLink || lk.waiters.len() != 0 {
			t.Errorf("link k%d->k%d: %d credits and %d waiters, want %d and 0",
				i/len(f.endpoints), i%len(f.endpoints), lk.credits, lk.waiters.len(), f.flow.cfg.CreditsPerLink)
		}
	}
}
