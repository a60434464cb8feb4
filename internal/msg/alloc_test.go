package msg

import (
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/faultinj"
	"repro/internal/sim"
)

// TestMessageResetZeroesEveryField proves by reflection that Message.reset
// clears every field — exported and unexported alike — but the two that make
// a free message its slot's (Payload, pointing at the body beside the header,
// and pooled), and keeps those two as they were, so a future field addition
// cannot leak one pooled message's state into its next tenant. It mirrors the
// AllTypes exhaustiveness pattern: the field list is discovered, not
// enumerated by hand.
func TestMessageResetZeroesEveryField(t *testing.T) {
	kept := map[string]bool{"Payload": true, "pooled": true}
	ty := reflect.TypeOf(Message{})
	field := func(m *Message, i int) reflect.Value {
		// Unexported fields need the unsafe.Pointer detour to be settable.
		return reflect.NewAt(ty.Field(i).Type, unsafe.Pointer(reflect.ValueOf(m).Elem().Field(i).UnsafeAddr())).Elem()
	}
	m := &Message{}
	for i := 0; i < ty.NumField(); i++ {
		fv := field(m, i)
		if err := setNonZero(fv); err != "" {
			t.Fatalf("field %s: %s", ty.Field(i).Name, err)
		}
		if fv.IsZero() {
			t.Fatalf("field %s: failed to make it non-zero before reset", ty.Field(i).Name)
		}
	}
	before := *m
	m.reset()
	for i := 0; i < ty.NumField(); i++ {
		name, fv := ty.Field(i).Name, field(m, i)
		switch {
		case kept[name] && !reflect.DeepEqual(fv.Interface(), field(&before, i).Interface()):
			t.Errorf("field %s changed across reset to %v; the free message would lose its slot", name, fv)
		case !kept[name] && !fv.IsZero():
			t.Errorf("field %s survived reset with value %v; pooled reuse would leak it", name, fv)
		}
		delete(kept, name)
	}
	if len(kept) != 0 {
		t.Errorf("reset keeps fields Message no longer has: %v", kept)
	}
}

// TestMessageIs136Bytes pins the header's size. The pool allocates it with its
// payload, so a header that grows a word can push common messages into the
// next size class: Floor, laid out as its own word instead of beside the
// flags, moved futex_shared, migrate_ring and page_bounce bytes_per_op by
// +3–4 %.
func TestMessageIs136Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got != 136 {
		t.Fatalf("Message is %d bytes, want 136: pack new flags beside IsReply", got)
	}
}

// setNonZero writes a non-zero value of the field's kind; returns a
// diagnostic for kinds it does not know how to populate (add the kind here
// when Message grows such a field).
func setNonZero(fv reflect.Value) string {
	switch fv.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fv.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fv.SetUint(7)
	case reflect.Bool:
		fv.SetBool(true)
	case reflect.String:
		fv.SetString("x")
	case reflect.Interface:
		fv.Set(reflect.ValueOf(any("payload")))
	case reflect.Ptr, reflect.Map, reflect.Slice, reflect.Chan, reflect.Func:
		fv.Set(reflect.New(fv.Type()).Elem()) // stays zero: unsupported
		return "pointer-like field kinds need an explicit non-zero sample in setNonZero"
	default:
		return "unknown kind " + fv.Kind().String()
	}
	return ""
}

// allocsPerMessage runs a one-message-per-tick send→deliver→handle loop and
// returns the average allocations per processed message once the fabric is
// warm. A pinger process fires every tick; each RunFor window covers exactly
// n ticks.
func allocsPerMessage(t *testing.T, f *Fabric, e sim.Engine) float64 {
	t.Helper()
	const tick = 10 * time.Microsecond
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message { return nil })
	e.Spawn("pinger", func(p *sim.Proc) {
		ep := f.Endpoint(0)
		m := &Message{}
		for {
			*m = Message{Type: TypePing, To: 1, Size: 64}
			ep.Send(p, m)
			p.Sleep(tick)
		}
	})
	// Warm-up: grow rings, queues, free lists, proc stacks, dedup tables.
	if err := e.RunFor(100 * tick); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	const perRun = 8
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.RunFor(perRun * tick); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	return allocs / perRun
}

// TestSendDeliverSteadyStateAllocs pins the reliable fabric's send→deliver
// path at nothing per message: the pinger reuses its one Message, the handler
// process runs on a pooled record (its Proc, its bound body) on a pooled
// carrier, and events, the pump's pre-bound callbacks, wire entries, ring
// slots and span names are recycled.
func TestSendDeliverSteadyStateAllocs(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	got := allocsPerMessage(t, f, e)
	// Measured 0; one allocation per message reads 0.9 (seven messages per
	// eight-tick window).
	if got > 0.5 {
		t.Fatalf("send→deliver steady state allocates %.1f allocs/message, want <= 0.5", got)
	}
}

// TestSendDeliverSteadyStateAllocsFaultsOn repeats the pin with the fault
// plane attached (empty plan: hardened transport, no injected faults). What
// it adds to the reliable path is a dedup entry per request, which comes off
// the pool retire refills.
func TestSendDeliverSteadyStateAllocsFaultsOn(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	f.EnableFaults(&faultinj.Plan{Seed: 1}, FaultConfig{}, FaultHooks{})
	got := allocsPerMessage(t, f, e)
	// Measured 0.0 (0.9 while the table kept every entry).
	if got > 0.5 {
		t.Fatalf("fault-mode send→deliver allocates %.1f allocs/message, want <= 0.5", got)
	}
	if n := len(f.Endpoint(1).seen); n > 2 {
		t.Fatalf("%d dedup entries live after %d one-way messages, want at most 2", n, f.metrics.Counter("msg.delivered").Value())
	}
}

// TestCallSteadyStateAllocs pins the RPC round trip with no tracer attached
// at nothing per call: the request and the reply come out of the fabric's
// message pool and go back to it (at the Call's end, and once Kind.Call has
// copied the payload out), the handler's record, the call record and the
// reply's continuation are pooled — and nothing for diagnostics nobody asked
// for: Call must not box msg.send trace arguments for a detached tracer, nor
// format a deadlock-report label per wait. Seq (past 255 after the warm-up)
// and Size are chosen so that boxing them allocates; the runtime boxes
// smaller integers for free.
func TestCallSteadyStateAllocs(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	// Measured 0.0 (1.8 before messages were pooled: two per call, seven
	// calls per eight-tick window); boxing the two trace arguments alone adds
	// 1.8.
	callSteadyState(t, e, testFabric(t, e))
}

// TestCallSteadyStateAllocsFaultsOn repeats the pin with the fault plane
// attached (empty plan: hardened transport, no injected faults). What it adds
// is a dedup entry per request, holding its own copy of the reply for
// replays: both come off the free lists retire refills, so the reply slot
// stops making messages once warm. Measured 0.0 (0.9 while the table pinned
// the reply it cached: one fresh reply per call).
func TestCallSteadyStateAllocsFaultsOn(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	f.EnableFaults(&faultinj.Plan{Seed: 1}, FaultConfig{}, FaultHooks{})
	callSteadyState(t, e, f)
}

// callSteadyState runs one 4 KiB RPC per tick from kernel 0 to kernel 1 and
// fails unless, once warm, a call allocates at most half an allocation, the
// reply slot makes no message, and the pool balances.
func callSteadyState(t *testing.T, e sim.Engine, f *Fabric) {
	t.Helper()
	// One round trip per tick: the tick is far longer than a 4 KiB RPC.
	const tick = 100 * time.Microsecond
	type pong struct{ N int }
	ping := &Kind[pong, pong]{Type: TypePing, Size: 4096, ReplySize: 64}
	ping.Handle(f.Endpoint(1), func(_ *sim.Proc, _ NodeID, req *pong) pong { return *req })
	e.Spawn("caller", func(p *sim.Proc) {
		ep := f.Endpoint(0)
		for i := 0; ; i++ {
			if r, err := ping.Call(p, ep, 1, NoRole, &pong{N: i}); err != nil || r.N != i {
				panic(fmt.Sprintf("call %d: %+v, %v", i, r, err))
			}
			p.Sleep(tick)
		}
	})
	if err := e.RunFor(300 * tick); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	replies := &f.pool.slots[TypePing][1]
	made := replies.made
	const perRun = 8
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.RunFor(perRun * tick); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	if got := allocs / perRun; got > 0.5 {
		t.Fatalf("RPC steady state allocates %.1f allocs/call, want <= 0.5", got)
	}
	if replies.made != made {
		t.Fatalf("the reply slot made %d messages once warm, want 0", replies.made-made)
	}
	if err := f.checkPool(); err != nil {
		t.Fatal(err)
	}
}

// TestWireRingReusesCapacity locks in the head-compaction behavior: a busy
// pair's ring must not grow without bound and must recycle its entry
// objects.
func TestWireRingReusesCapacity(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message { return nil })
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			f.Endpoint(0).Send(p, &Message{Type: TypePing, To: 1, Size: 64})
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	w := f.wires[f.pair(0, 1)]
	if w.len() != 0 {
		t.Fatalf("%d entries left on the drained wire", w.len())
	}
	if cap(w.items) > 64 {
		t.Fatalf("ring capacity grew to %d for strictly serial sends; compaction is not reusing the array", cap(w.items))
	}
	if len(f.entryFree) == 0 {
		t.Fatal("wire entries were not recycled to the free list")
	}
}

// heartbeatsOnWires counts the fabric-owned heartbeats in flight: reserved on
// a wire, their sender inside the send window.
func heartbeatsOnWires(f *Fabric) int {
	n := 0
	for _, w := range f.wires {
		for _, entry := range w.items[w.head:] {
			if entry.m.Type == TypeHeartbeat {
				n++
			}
		}
	}
	return n
}

// checkHeartbeatsConserved asserts the msg.pool invariant mid-run, and that
// every heartbeat is back in the pool, in flight or riding a delay: none is
// pinned, held or lost.
func checkHeartbeatsConserved(t *testing.T, f *Fabric, when string) {
	t.Helper()
	if err := f.checkPool(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	hb := &f.pool.slots[TypeHeartbeat][0]
	if pooled, flying := len(hb.free), heartbeatsOnWires(f); hb.made != pooled+flying+f.pool.detached {
		t.Fatalf("%s: %d heartbeats allocated, %d pooled + %d in flight + %d detached: %d leaked",
			when, hb.made, pooled, flying, f.pool.detached, hb.made-pooled-flying-f.pool.detached)
	}
}

// TestHeartbeatPoolRecycles drives a crash-and-heal window (which starts
// the survivors' heartbeat traffic) and verifies heartbeats cycle through the
// fabric's message pool rather than piling up as garbage — the ones delivered
// and the ones sent into the dead window alike.
func TestHeartbeatPoolRecycles(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	plan := &faultinj.Plan{
		Seed:    1,
		Crashes: []faultinj.NodeCrash{{Node: 3, At: time.Millisecond}},
		Heals:   []faultinj.NodeHeal{{Node: 3, At: 4 * time.Millisecond}},
	}
	f.EnableFaults(plan, FaultConfig{}, FaultHooks{})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if f.metrics.Counter("msg.heartbeat.recv").Value() == 0 {
		t.Fatal("no heartbeats delivered; the scenario did not exercise the pool")
	}
	if f.metrics.Counter("msg.fault.dead-link").Value() == 0 {
		t.Fatal("no heartbeat went into the dead window; the scenario did not exercise drop")
	}
	checkHeartbeatsConserved(t, f, "after the window")
}

// TestEatenHeartbeatsRecycle holds a failure window open (a crash whose heal
// is far off, a verdict threshold further still) with two survivors
// partitioned from each other for hundreds of probe periods, so every period
// the fault plane eats five heartbeats — two at the partition, three on the
// dead kernel's links. Each must go back to the pool (Fabric.drop): the
// window's steady state allocates nothing, and no heartbeat is ever
// unaccounted for. An eaten heartbeat left as garbage costs its replacement at
// the next probe: 40 allocations per measured run below.
func TestEatenHeartbeatsRecycle(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	const every = 50 * time.Microsecond
	plan := &faultinj.Plan{
		Seed:       1,
		Crashes:    []faultinj.NodeCrash{{Node: 3, At: 2 * every}},
		Heals:      []faultinj.NodeHeal{{Node: 3, At: 600 * every}},
		Partitions: []faultinj.Partition{{A: 0, B: 1, From: 0, Until: 500 * every}},
	}
	// DeadAfter far past the window: no suspicion and no verdict ends the
	// probing of the dead kernel or of the partitioned peer.
	f.EnableFaults(plan, FaultConfig{HeartbeatEvery: every, DeadAfter: time.Second}, FaultHooks{})
	if err := e.RunFor(40 * every); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	checkHeartbeatsConserved(t, f, "after warm-up")
	eaten := f.metrics.Counter("msg.fault.partition").Value() + f.metrics.Counter("msg.fault.dead-link").Value()
	hb := &f.pool.slots[TypeHeartbeat][0]
	made := hb.made
	const perRun = 8
	allocs := testing.AllocsPerRun(50, func() {
		if err := e.RunFor(perRun * every); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	if now := e.Now().Duration(); now >= 500*every {
		t.Fatalf("measured up to %v, past the partition: shorten the runs", now)
	}
	after := f.metrics.Counter("msg.fault.partition").Value() + f.metrics.Counter("msg.fault.dead-link").Value()
	if periods := uint64(51 * perRun); after-eaten < 4*periods {
		t.Fatalf("the fault plane ate %d heartbeats over %d periods, want about five a period", after-eaten, periods)
	}
	if allocs != 0 || hb.made != made {
		t.Fatalf("steady state of the window: %.0f allocations per %d probe periods and %d new heartbeats, want 0 and 0",
			allocs, perRun, hb.made-made)
	}
	checkHeartbeatsConserved(t, f, "inside the partition")
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if f.metrics.Counter("msg.fault.rejoined").Value() == 0 {
		t.Fatal("the healed kernel never rejoined; the window did not close")
	}
	checkHeartbeatsConserved(t, f, "at quiescence")
	if flying := heartbeatsOnWires(f); flying != 0 {
		t.Fatalf("%d heartbeats still in flight at quiescence", flying)
	}
}

// TestCrashWipeEndsHeartbeatsInTheirSendWindow lands a crash inside heartbeat
// send windows: kernel 3's crash opens a failure window, and kernel 1 dies 2ns
// later, while survivor 0's heartbeat to it and kernel 1's own to kernel 0 are
// both reserved on the wires the crash wipes. Survivor 0 commits its wiped
// heartbeat after the crash; kernel 1's heartbeat process dies in its window
// and never commits. Both heartbeats must end back in the pool.
func TestCrashWipeEndsHeartbeatsInTheirSendWindow(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	const opened = time.Millisecond
	f.EnableFaults(&faultinj.Plan{Seed: 1, Crashes: []faultinj.NodeCrash{{Node: 3, At: opened}, {Node: 1, At: opened + 2}}},
		FaultConfig{}, FaultHooks{})
	inWindow := 0
	e.Schedule(opened+1, func() {
		for _, w := range []fifo[*wireEntry]{f.wires[f.pair(0, 1)], f.wires[f.pair(1, 0)]} {
			for _, entry := range w.items[w.head:] {
				if entry.m.Type == TypeHeartbeat && !entry.ready {
					inWindow++
				}
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if inWindow != 2 {
		t.Fatalf("scenario broken: %d heartbeats inside their send window at the crash, want 2", inWindow)
	}
	checkHeartbeatsConserved(t, f, "at quiescence")
	if flying := heartbeatsOnWires(f); flying != 0 {
		t.Fatalf("%d heartbeats still in flight at quiescence", flying)
	}
}
