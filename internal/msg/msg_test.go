package msg

import (
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stats"
)

// testFabric builds a 4-kernel fabric over an 8-core dual-socket machine:
// kernels 0,1 on node 0 (cores 0,2), kernels 2,3 on node 1 (cores 4,6).
func testFabric(t *testing.T, e sim.Engine) *Fabric {
	t.Helper()
	m, err := hw.NewMachine(hw.Topology{Cores: 8, NUMANodes: 2}, hw.DefaultCostModel())
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	f, err := NewFabric(e, m, 4, []int{0, 2, 4, 6}, DefaultConfig(), stats.NewRegistry())
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	return f
}

func TestFabricValidation(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m, _ := hw.NewMachine(hw.Topology{Cores: 4, NUMANodes: 1}, hw.DefaultCostModel())
	if _, err := NewFabric(e, m, 0, nil, DefaultConfig(), nil); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewFabric(e, m, 2, []int{0}, DefaultConfig(), nil); err == nil {
		t.Error("mismatched nodeCore accepted")
	}
	bad := DefaultConfig()
	bad.SlotBytes = 0
	if _, err := NewFabric(e, m, 2, []int{0, 1}, bad, nil); err == nil {
		t.Error("zero SlotBytes accepted")
	}
}

func TestSendInvokesRemoteHandler(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	var got *Message
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		got = m
		return nil
	})
	e.Spawn("sender", func(p *sim.Proc) {
		f.Endpoint(0).Send(p, &Message{Type: TypePing, To: 1, Size: 64, Payload: "hello"})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got == nil {
		t.Fatal("handler never ran")
	}
	if got.From != 0 || got.Payload.(string) != "hello" {
		t.Fatalf("handler got %+v", got)
	}
}

func TestCallRoundTrip(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		return &Message{Size: 8, Payload: m.Payload.(int) * 2}
	})
	var reply *Message
	e.Spawn("caller", func(p *sim.Proc) {
		r, err := f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: 8, Payload: 21})
		if err != nil {
			t.Errorf("Call: %v", err)
			return
		}
		reply = r
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if reply == nil || reply.Payload.(int) != 42 {
		t.Fatalf("reply = %+v, want payload 42", reply)
	}
	if !reply.IsReply || reply.From != 1 {
		t.Fatalf("reply metadata wrong: %+v", reply)
	}
}

func TestCallToSelfErrors(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	e.Spawn("caller", func(p *sim.Proc) {
		if _, err := f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 0}); err == nil {
			t.Error("self-RPC accepted")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRoundTripTakesNonZeroVirtualTime(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		return &Message{Size: 1}
	})
	var elapsed time.Duration
	e.Spawn("caller", func(p *sim.Proc) {
		start := p.Now()
		if _, err := f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: 1}); err != nil {
			t.Errorf("Call: %v", err)
		}
		elapsed = p.Now().Sub(start)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if elapsed <= 0 {
		t.Fatalf("round trip took %v, want > 0", elapsed)
	}
}

func TestCrossNUMACostsMoreThanSameNode(t *testing.T) {
	rtt := func(to NodeID) time.Duration {
		e := sim.NewEngine()
		defer e.Close()
		f := testFabric(t, e)
		f.Endpoint(to).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
			return &Message{Size: 64}
		})
		var elapsed time.Duration
		e.Spawn("caller", func(p *sim.Proc) {
			start := p.Now()
			if _, err := f.Endpoint(0).Call(p, &Message{Type: TypePing, To: to, Size: 64}); err != nil {
				t.Errorf("Call: %v", err)
			}
			elapsed = p.Now().Sub(start)
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return elapsed
	}
	same, cross := rtt(1), rtt(2)
	if cross <= same {
		t.Fatalf("cross-NUMA RTT %v not > same-node RTT %v", cross, same)
	}
}

func TestLargerPayloadCostsMore(t *testing.T) {
	rtt := func(size int) time.Duration {
		e := sim.NewEngine()
		defer e.Close()
		f := testFabric(t, e)
		f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
			return &Message{Size: 8}
		})
		var elapsed time.Duration
		e.Spawn("caller", func(p *sim.Proc) {
			start := p.Now()
			if _, err := f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: size}); err != nil {
				t.Errorf("Call: %v", err)
			}
			elapsed = p.Now().Sub(start)
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return elapsed
	}
	small, big := rtt(64), rtt(16384)
	if big <= small {
		t.Fatalf("16KiB RTT %v not > 64B RTT %v", big, small)
	}
}

func TestFIFODeliveryPerSender(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	var got []int
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		got = append(got, m.Payload.(int))
		return nil
	})
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			f.Endpoint(0).Send(p, &Message{Type: TypePing, To: 1, Size: 8, Payload: i})
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d messages, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery order %v, want FIFO", got)
		}
	}
}

func TestBlockingHandlerDoesNotStallDelivery(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	var slowDone, fastDone sim.Time
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		if m.Payload.(string) == "slow" {
			p.Sleep(time.Second)
			slowDone = p.Now()
		} else {
			fastDone = p.Now()
		}
		return nil
	})
	e.Spawn("sender", func(p *sim.Proc) {
		f.Endpoint(0).Send(p, &Message{Type: TypePing, To: 1, Size: 8, Payload: "slow"})
		f.Endpoint(0).Send(p, &Message{Type: TypePing, To: 1, Size: 8, Payload: "fast"})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fastDone >= slowDone {
		t.Fatalf("fast handler finished at %v, after slow at %v", fastDone, slowDone)
	}
}

// TestUnhandledTypePanicsEngine: a message nobody registered for ends Run
// with an error naming the kernel and the type. The receive pump runs in
// engine callbacks, so this must come back as Run's error — a panic escaping
// the engine loop would take the test binary down instead.
func TestUnhandledTypePanicsEngine(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	e.Spawn("sender", func(p *sim.Proc) {
		f.Endpoint(0).Send(p, &Message{Type: TypeSignal, To: 1, Size: 8})
	})
	err := e.Run()
	if err == nil {
		t.Fatal("missing handler did not fail the run")
	}
	if want := "node 1 has no handler for " + TypeSignal.String(); !strings.Contains(err.Error(), want) {
		t.Fatalf("Run = %q, want it to contain %q", err, want)
	}
	if e.Err() == nil {
		t.Error("engine did not record the failure")
	}
}

func TestDuplicateHandlerPanics(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	f.Endpoint(0).Handle(TypePing, func(p *sim.Proc, m *Message) *Message { return nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Handle did not panic")
		}
	}()
	f.Endpoint(0).Handle(TypePing, func(p *sim.Proc, m *Message) *Message { return nil })
}

func TestCallEachGathersAllReplies(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	for n := 1; n < 4; n++ {
		n := n
		f.Endpoint(NodeID(n)).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
			p.Sleep(time.Duration(n) * time.Millisecond)
			return &Message{Size: 8, Payload: n * 100}
		})
	}
	var replies []*Message
	var elapsed time.Duration
	e.Spawn("caller", func(p *sim.Proc) {
		start := p.Now()
		rs, err := f.Endpoint(0).CallEach(p, []NodeID{1, 2, 3}, func(to NodeID) *Message {
			return &Message{Type: TypePing, To: to, Size: 8}
		})
		if err != nil {
			t.Errorf("CallEach: %v", err)
		}
		replies = rs
		elapsed = p.Now().Sub(start)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(replies) != 3 {
		t.Fatalf("got %d replies", len(replies))
	}
	for i, r := range replies {
		if r == nil || r.Payload.(int) != (i+1)*100 {
			t.Fatalf("reply %d = %+v", i, r)
		}
	}
	// Parallel: the total should be ~max handler delay (3ms), not the sum (6ms).
	if elapsed >= 5*time.Millisecond {
		t.Fatalf("CallEach took %v; looks sequential", elapsed)
	}
}

func TestCallEachEmptyTargets(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	e.Spawn("caller", func(p *sim.Proc) {
		rs, err := f.Endpoint(0).CallEach(p, nil, nil)
		if err != nil || len(rs) != 0 {
			t.Errorf("CallEach(nil) = %v, %v", rs, err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestCallEachRejectsSelf: a round whose targets include the caller's own
// kernel is rejected before any send, and every entry fails — an entry left
// without an error would read as a success with a zero reply.
func TestCallEachRejectsSelf(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	targets := []NodeID{1, 0}
	e.Spawn("caller", func(p *sim.Proc) {
		if _, err := f.Endpoint(0).CallEach(p, targets, func(to NodeID) *Message {
			return &Message{Type: TypePing, To: to}
		}); err == nil {
			t.Error("CallEach including self accepted")
		}
		failed := 0
		double.Each(p, f.Endpoint(0), targets, NoRole, &poolReq{N: 1}, func(i int, ack *poolAck, err error) {
			if err == nil {
				t.Errorf("entry %d (k%d) of a round including self reads as a success: %+v", i, targets[i], ack)
			}
			failed++
		})
		if failed != len(targets) {
			t.Errorf("%d of %d entries visited", failed, len(targets))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sent := f.metrics.Counter("msg.sent").Value(); sent != 0 {
		t.Errorf("%d messages sent by rejected rounds, want 0", sent)
	}
}

// TestOneWayKindRepliesOnlyWhenDeclared: a handler's reply to a request sent
// one-way goes out only when its kind's OneWayReply accepts it, and is then
// dropped at the sender as an orphan.
func TestOneWayKindRepliesOnlyWhenDeclared(t *testing.T) {
	for _, declared := range []bool{false, true} {
		e := sim.NewEngine()
		f := testFabric(t, e)
		k := Kind[poolReq, poolAck]{Type: TypePing, Size: 64, ReplySize: 64}
		if declared {
			k.OneWayReply = func(a *poolAck) bool { return a.N > 0 }
		}
		k.Handle(f.Endpoint(1), func(_ *sim.Proc, _ NodeID, r *poolReq) poolAck { return poolAck{N: r.N} })
		e.Spawn("sender", func(p *sim.Proc) {
			k.Send(p, f.Endpoint(0), 1, &poolReq{N: 1})
			k.Send(p, f.Endpoint(0), 1, &poolReq{N: 0})
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		want := uint64(2)
		if declared {
			want++ // N: 1's answer; N: 0's is refused
		}
		if sent := f.metrics.Counter("msg.sent").Value(); sent != want {
			t.Errorf("OneWayReply set %v: msg.sent = %d, want %d", declared, sent, want)
		}
		if orphans := f.metrics.Counter("msg.rpc.orphan").Value(); orphans != want-2 {
			t.Errorf("OneWayReply set %v: msg.rpc.orphan = %d, want %d", declared, orphans, want-2)
		}
		if err := f.checkPool(); err != nil {
			t.Error(err)
		}
		e.Close()
	}
}

func TestMetricsRecorded(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		return &Message{Size: 8}
	})
	e.Spawn("caller", func(p *sim.Proc) {
		_, _ = f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: 8})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	reg := f.Metrics()
	if reg.Counter("msg.sent").Value() != 2 { // request + reply
		t.Fatalf("msg.sent = %d, want 2", reg.Counter("msg.sent").Value())
	}
	if reg.Histogram("msg.rpc.rtt").Count() != 1 {
		t.Fatal("rtt histogram empty")
	}
}

func TestSlotsFragmentation(t *testing.T) {
	c := Config{SlotBytes: 128}
	tests := []struct {
		size, want int
	}{
		{0, 1}, {1, 1}, {128, 1}, {129, 2}, {256, 2}, {4096, 32},
	}
	for _, tt := range tests {
		if got := c.slots(tt.size); got != tt.want {
			t.Errorf("slots(%d) = %d, want %d", tt.size, got, tt.want)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	if TypePing.String() != "ping" {
		t.Fatalf("TypePing = %q", TypePing)
	}
	if Type(999).String() == "" {
		t.Fatal("unknown type renders empty")
	}
}

func TestCostsMonotonicInSize(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	prevSend, prevRecv := time.Duration(0), time.Duration(0)
	for _, size := range []int{0, 64, 128, 129, 4096, 65536} {
		m := &Message{Type: TypePing, From: 0, To: 1, Size: size}
		send, recv := f.sendCost(m), f.recvCost(m)
		if send < prevSend || recv < prevRecv {
			t.Fatalf("costs not monotone at size %d: send %v recv %v", size, send, recv)
		}
		prevSend, prevRecv = send, recv
	}
	// Cross-node receive costs more (remote line transfers).
	local := f.recvCost(&Message{From: 0, To: 1, Size: 4096})
	cross := f.recvCost(&Message{From: 0, To: 2, Size: 4096})
	if cross <= local {
		t.Fatalf("cross-node recv %v not above same-node %v", cross, local)
	}
}
