package msg

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestWireFIFOPropertyUnderConcurrentSenders checks the transport's key
// ordering guarantee: for any set of concurrently sending processes on one
// kernel with arbitrary payload sizes and delays, messages between a given
// (src, dst) pair are delivered in send-start order — a later small message
// never overtakes an earlier large one (the coherence protocols depend on
// this).
func TestWireFIFOPropertyUnderConcurrentSenders(t *testing.T) {
	type sendPlan struct {
		DelayUS uint8
		SizeLog uint8 // payload = 1 << (SizeLog % 15)
	}
	f := func(plans []sendPlan, seed int64) bool {
		if len(plans) == 0 {
			return true
		}
		if len(plans) > 24 {
			plans = plans[:24]
		}
		e := sim.NewEngine(sim.WithSeed(seed))
		defer e.Close()
		f := testFabric(t, e)
		var got []int
		f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
			got = append(got, m.Payload.(int))
			return nil
		})
		// One sender process issues all sends in order (send-start order is
		// its program order); concurrent noise processes ping other nodes.
		e.Spawn("sender", func(p *sim.Proc) {
			for i, pl := range plans {
				p.Sleep(time.Duration(pl.DelayUS) * time.Microsecond)
				size := 1 << (pl.SizeLog % 15)
				f.Endpoint(0).Send(p, &Message{Type: TypePing, To: 1, Size: size, Payload: i})
			}
		})
		e.Spawn("noise", func(p *sim.Proc) {
			for i := 0; i < len(plans); i++ {
				f.Endpoint(2).Send(p, &Message{Type: TypePing, To: 3, Size: 64, Payload: -1})
			}
		})
		f.Endpoint(3).Handle(TypePing, func(p *sim.Proc, m *Message) *Message { return nil })
		if err := e.Run(); err != nil {
			t.Logf("Run: %v", err)
			return false
		}
		if len(got) != len(plans) {
			t.Logf("delivered %d of %d", len(got), len(plans))
			return false
		}
		for i, v := range got {
			if v != i {
				t.Logf("delivery order %v", got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentRPCsFromManyProcs interleaves many callers on one endpoint
// and checks every reply is matched to its own request.
func TestConcurrentRPCsFromManyProcs(t *testing.T) {
	e := sim.NewEngine(sim.WithSeed(4))
	defer e.Close()
	f := testFabric(t, e)
	f.Endpoint(2).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		// Variable service time shuffles completion order.
		p.Sleep(time.Duration(m.Payload.(int)%7) * time.Microsecond)
		return &Message{Size: 8, Payload: m.Payload.(int) * 3}
	})
	const callers = 20
	okCount := 0
	for i := 0; i < callers; i++ {
		i := i
		e.Spawn("caller", func(p *sim.Proc) {
			reply, err := f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 2, Size: 16, Payload: i})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			if reply.Payload.(int) != i*3 {
				t.Errorf("caller %d got reply %v", i, reply.Payload)
				return
			}
			okCount++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if okCount != callers {
		t.Fatalf("%d of %d RPCs matched", okCount, callers)
	}
}

// TestSeqRoundTrips pins the RPC sequence-number discipline the fault-mode
// dedup and retransmission machinery rely on: every request gets a unique
// nonzero Seq, and the reply comes back stamped with the same Seq.
func TestSeqRoundTrips(t *testing.T) {
	e := sim.NewEngine(sim.WithSeed(9))
	defer e.Close()
	f := testFabric(t, e)
	seen := make(map[uint64]bool)
	f.Endpoint(3).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		if m.Seq == 0 {
			t.Errorf("request arrived with zero Seq")
		}
		return &Message{Size: 8, Payload: m.Seq}
	})
	const callers = 12
	for i := 0; i < callers; i++ {
		from := NodeID(i % 3) // kernels 0..2 all call kernel 3
		e.Spawn("caller", func(p *sim.Proc) {
			m := &Message{Type: TypePing, To: 3, Size: 16}
			reply, err := f.Endpoint(from).Call(p, m)
			if err != nil {
				t.Errorf("call from k%d: %v", from, err)
				return
			}
			if m.Seq == 0 {
				t.Errorf("request Seq never stamped")
			}
			if seen[m.Seq] {
				t.Errorf("Seq %d reused across concurrent RPCs", m.Seq)
			}
			seen[m.Seq] = true
			if reply.Seq != m.Seq {
				t.Errorf("reply Seq %d does not match request Seq %d", reply.Seq, m.Seq)
			}
			if reply.Payload.(uint64) != m.Seq {
				t.Errorf("handler saw Seq %v, caller sent %d", reply.Payload, m.Seq)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(seen) != callers {
		t.Fatalf("%d unique seqs for %d calls", len(seen), callers)
	}
}

// TestTracerCapturesTraffic attaches a span collector and checks that every
// leg of an RPC is counted as sent and delivered and recorded as one closed
// wire span.
func TestTracerCapturesTraffic(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	col := trace.NewCollector()
	f.SetCollector(col)
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		return &Message{Size: 8}
	})
	e.Spawn("caller", func(p *sim.Proc) {
		if _, err := f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: 8}); err != nil {
			t.Errorf("Call: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	sends, delivers := f.metrics.Counter("msg.sent").Value(), f.metrics.Counter("msg.delivered").Value()
	if sends != 2 || delivers != 2 { // request + reply
		t.Fatalf("sends=%d delivers=%d, want 2/2", sends, delivers)
	}
	wires := 0
	for _, sp := range col.Spans() {
		if strings.HasPrefix(sp.Name, "wire.") && sp.End >= sp.Begin {
			wires++
		}
	}
	if wires != 2 {
		t.Fatalf("closed wire spans = %d, want 2:\n%v", wires, col.Spans())
	}
}
