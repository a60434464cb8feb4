package msg

import (
	"testing"
	"time"

	"repro/internal/faultinj"
	"repro/internal/sim"
)

// The dedup table retires an entry once no copy of its request can reach the
// pump any more (Endpoint.retire). Retiring must change no decision, so the
// table that forgets has to answer every copy exactly as the one that
// remembered for ever did: these tests pin that, under noise and at the edges
// of the rule.

// noisyRun drives 4 kernels × 4 callers × 300 rounds of Call + Send under
// drop 0.1 / dup 0.2 / delay 0.2 (DelayMax 20µs) on every link, and reports
// how many requests were handled, the dedup hits and cached-reply replays, the
// dedup entries left at quiescence, and the most times any one seq was
// handled.
func noisyRun(t *testing.T, seed int64) (handled, hits, replayed uint64, left, most int) {
	t.Helper()
	const kernels, callers, rounds = 4, 4, 300
	e := sim.NewEngine(sim.WithSeed(seed))
	defer e.Close()
	f := faultFabric(t, e, &faultinj.Plan{Seed: seed, Rules: []faultinj.Rule{{
		From: faultinj.Wildcard, To: faultinj.Wildcard, Type: faultinj.Wildcard,
		DropP: 0.1, DupP: 0.2, DelayP: 0.2, DelayMax: 20 * time.Microsecond,
	}}})
	runs := make(map[uint64]int)
	for k := 0; k < kernels; k++ {
		count := func(p *sim.Proc, m *Message) {
			runs[m.Seq]++
			handled++
			p.Sleep(time.Duration(m.Seq%5) * time.Microsecond)
		}
		f.Endpoint(NodeID(k)).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
			count(p, m)
			return &Message{Size: 64}
		})
		f.Endpoint(NodeID(k)).Handle(TypeUser, func(p *sim.Proc, m *Message) *Message {
			count(p, m)
			return nil
		})
	}
	for k := 0; k < kernels; k++ {
		for j := 0; j < callers; j++ {
			ep := f.Endpoint(NodeID(k))
			e.Spawn("caller", func(p *sim.Proc) {
				for r := 0; r < rounds; r++ {
					to := NodeID((k + 1 + (j+r)%(kernels-1)) % kernels)
					if _, err := ep.Call(p, &Message{Type: TypePing, To: to, Size: 64}); err != nil {
						t.Errorf("seed %d: k%d call %d: %v", seed, k, r, err)
						return
					}
					ep.Send(p, &Message{Type: TypeUser, To: to, Size: 64})
					p.Sleep(time.Duration(1+(k+j+r)%3) * time.Microsecond)
				}
			})
		}
	}
	if err := e.Run(); err != nil {
		t.Fatalf("seed %d: Run: %v", seed, err)
	}
	for _, n := range runs {
		most = max(most, n)
	}
	for k := 0; k < kernels; k++ {
		left += len(f.Endpoint(NodeID(k)).seen)
	}
	return handled, f.metrics.Counter("msg.fault.dedup_hits").Value(), f.metrics.Counter("msg.fault.replayed").Value(), left, most
}

// TestDedupRetirementKeepsEveryDecision is the differential: 16 seeds of
// noisyRun, each seq handled at most once, the dedup hits and replays equal to
// what the never-pruned table produced (measured at the parent commit), and at
// most 2 % of the requests still remembered at quiescence (the parent kept all
// 9 600).
func TestDedupRetirementKeepsEveryDecision(t *testing.T) {
	// {handled, dedup hits, replays} per seed, from the table that kept every
	// entry.
	want := [16][3]uint64{
		{9600, 1969, 748},
		{9600, 2057, 755},
		{9600, 2119, 789},
		{9600, 1974, 741},
		{9600, 2008, 736},
		{9600, 2076, 806},
		{9600, 1941, 729},
		{9600, 1958, 748},
		{9600, 2025, 770},
		{9600, 2013, 762},
		{9600, 2087, 770},
		{9600, 1999, 746},
		{9600, 2045, 741},
		{9600, 2098, 743},
		{9600, 1887, 701},
		{9600, 2026, 782},
	}
	const requests = 4 * 4 * 300 * 2
	for seed := int64(1); seed <= 16; seed++ {
		handled, hits, replayed, left, most := noisyRun(t, seed)
		if most > 1 {
			t.Errorf("seed %d: a request was handled %d times", seed, most)
		}
		if got := [3]uint64{handled, hits, replayed}; got != want[seed-1] {
			t.Errorf("seed %d: {handled, hits, replays} = %v, want %v", seed, got, want[seed-1])
		}
		if left > requests/50 {
			t.Errorf("seed %d: %d dedup entries left at quiescence, want <= %d (2%% of %d)", seed, left, requests/50, requests)
		}
	}
}

// TestDedupDuplicateAtTheStraggleBoundary hands delivery a copy of a completed
// RPC exactly the straggler bound after the floor above its seq landed, in the
// instant the receiver's pump goes idle (copies are delivered directly, at
// chosen instants, as the fault plane's delay closures do). The floor is safe
// only strictly later, so the copy is answered from the cache; the entry
// retires at the next idle.
func TestDedupDuplicateAtTheStraggleBoundary(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	const delayMax = 20 * time.Microsecond
	f := faultFabric(t, e, &faultinj.Plan{Seed: 1, Rules: []faultinj.Rule{{
		From: 0, To: 1, Type: faultinj.Wildcard, DupP: 1, DelayMax: delayMax,
	}}})
	if f.straggle != delayMax {
		t.Fatalf("straggler bound %v, want the plan's DelayMax %v", f.straggle, delayMax)
	}
	ep0, ep1 := f.Endpoint(0), f.Endpoint(1)
	handled := 0
	ep1.Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		handled++
		return &Message{Size: 8}
	})
	ep1.Handle(TypeUser, func(p *sim.Proc, m *Message) *Message { return nil })
	stamped := func(typ Type, rpc bool) *Message {
		m := &Message{Type: typ, To: 1, Size: 64, rpc: rpc}
		ep0.prepare(m)
		return m
	}
	req := stamped(TypePing, true)
	floorMsg := stamped(TypeUser, false) // no call open: its floor is its own seq, above req's
	filler := stamped(TypeUser, false)
	const landed = 100 * time.Microsecond
	e.Schedule(0, func() { f.deliver(req) })
	e.Schedule(landed, func() { f.deliver(floorMsg) })
	// The filler's receive ends, and the pump goes idle, at the boundary...
	e.Schedule(landed+delayMax-f.recvCost(filler), func() { f.deliver(filler) })
	// ...and the late copy lands later in the same instant.
	e.Schedule(landed+delayMax-1, func() {
		e.Schedule(1, func() {
			dup := *req
			f.deliver(&dup)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if replays := f.metrics.Counter("msg.fault.replayed").Value(); handled != 1 || replays != 1 {
		t.Fatalf("handler ran %d times, %d replays; want 1 and 1: the copy at the boundary found no entry", handled, replays)
	}
	if _, ok := ep1.seen[dedupKey{from: 0, seq: req.Seq}]; ok {
		t.Error("the entry outlived its safe floor")
	}
}

// TestDedupOneWayDuplicateBeatsRedeliveredPrimary: the plan duplicates a
// one-way message and drops its primary, whose link-layer redelivery lands
// microseconds after the duplicate, while a second sender keeps the receiver's
// pump going idle in between. The entry the duplicate made must still be there
// for the primary and for the redelivery's own duplicate.
func TestDedupOneWayDuplicateBeatsRedeliveredPrimary(t *testing.T) {
	for seed := int64(1); ; seed++ {
		if seed > 64 {
			t.Fatal("scenario broken: no plan seed in 1..64 drops the primary exactly once")
		}
		e := sim.NewEngine()
		f := faultFabric(t, e, &faultinj.Plan{Seed: seed, Rules: []faultinj.Rule{{
			From: 0, To: 1, Type: int(TypeUser), DropP: 0.5, DupP: 1, DelayMax: 1,
		}}})
		handled := 0
		f.Endpoint(1).Handle(TypeUser, func(p *sim.Proc, m *Message) *Message {
			if m.From == 0 {
				handled++
			}
			return nil
		})
		e.Spawn("sender", func(p *sim.Proc) {
			f.Endpoint(0).Send(p, &Message{Type: TypeUser, To: 1, Size: 64})
		})
		e.Spawn("filler", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				f.Endpoint(2).Send(p, &Message{Type: TypeUser, To: 1, Size: 64})
				p.Sleep(500 * time.Nanosecond)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		redelivered, hits := f.metrics.Counter("msg.fault.redeliver").Value(), f.metrics.Counter("msg.fault.dedup_hits.k0-k1").Value()
		e.Close()
		if redelivered != 1 {
			continue
		}
		if handled != 1 || hits != 2 {
			t.Fatalf("seed %d: handled %d times with %d dedup hits; want once, the primary and the second duplicate suppressed", seed, handled, hits)
		}
		return
	}
}

// TestDedupEntryOutlivesAbandonedCall: the caller gives up (retries
// exhausted) while the handler still runs, and its later one-way messages
// carry floors past the request. The entry must stay — suppressing the
// retransmissions — until the handler is done, and retire after.
func TestDedupEntryOutlivesAbandonedCall(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := testFabric(t, e)
	f.EnableFaults(&faultinj.Plan{Seed: 1}, FaultConfig{RPCTimeout: 10 * time.Microsecond, RPCRetries: 2}, FaultHooks{})
	const hold = time.Millisecond
	ep1 := f.Endpoint(1)
	handled := 0
	ep1.Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		handled++
		p.Sleep(hold)
		return &Message{Size: 8}
	})
	ep1.Handle(TypeUser, func(p *sim.Proc, m *Message) *Message { return nil })
	var seq uint64
	var callErr error
	e.Spawn("caller", func(p *sim.Proc) {
		m := &Message{Type: TypePing, To: 1, Size: 64}
		_, callErr = f.Endpoint(0).Call(p, m)
		seq = m.Seq
		for p.Now() < sim.Time(2*hold) {
			f.Endpoint(0).Send(p, &Message{Type: TypeUser, To: 1, Size: 64})
			p.Sleep(10 * time.Microsecond)
		}
	})
	var present, doneEarly bool
	var safe uint64
	e.Schedule(hold-100*time.Microsecond, func() {
		de, ok := ep1.seen[dedupKey{from: 0, seq: seq}]
		present, doneEarly, safe = ok, ok && de.done, ep1.peers[0].safe
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !IsDeadPeer(callErr) || f.metrics.Counter("msg.fault.dupdrop").Value() == 0 {
		t.Fatalf("scenario broken: Call = %v, %d duplicates dropped; want an exhausted call whose copies hit a running handler",
			callErr, f.metrics.Counter("msg.fault.dupdrop").Value())
	}
	if safe <= seq {
		t.Fatalf("scenario broken: safe floor %d had not passed seq %d while the handler ran", safe, seq)
	}
	if !present || doneEarly || handled != 1 {
		t.Fatalf("entry present=%v done=%v while the handler ran, handler ran %d times; want present, not done, once", present, doneEarly, handled)
	}
	if _, ok := ep1.seen[dedupKey{from: 0, seq: seq}]; ok {
		t.Error("the entry outlived its handler and the floor")
	}
}

// TestDedupRebootResetsQueues: a receiver that crashes holding dedup entries
// comes back with an empty table, empty queues and no floors, and handles the
// traffic after its reboot exactly once.
func TestDedupRebootResetsQueues(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	const crashAt, healAt = 100 * time.Microsecond, 200 * time.Microsecond
	f := faultFabric(t, e, &faultinj.Plan{
		Seed:    1,
		Crashes: []faultinj.NodeCrash{{Node: 1, At: crashAt}},
		Heals:   []faultinj.NodeHeal{{Node: 1, At: healAt}},
	})
	ep1 := f.Endpoint(1)
	runs := make(map[uint64]int)
	ep1.Handle(TypeUser, func(p *sim.Proc, m *Message) *Message {
		runs[m.Seq]++
		if p.Now() < sim.Time(crashAt) {
			p.Sleep(time.Second) // never done: the entries wait for the crash
		}
		return nil
	})
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			f.Endpoint(0).Send(p, &Message{Type: TypeUser, To: 1, Size: 64})
		}
		p.Sleep(healAt + 50*time.Microsecond - p.Now().Duration())
		for i := 0; i < 5; i++ {
			f.Endpoint(0).Send(p, &Message{Type: TypeUser, To: 1, Size: 64})
		}
	})
	state := func() (entries, queued int, floor uint64) {
		for i := range ep1.peers {
			queued += ep1.peers[i].dedupQ.len()
			floor = max(floor, ep1.peers[i].floor, ep1.peers[i].safe)
		}
		return len(ep1.seen), queued, floor
	}
	var before, after [3]uint64
	e.Schedule(crashAt-1, func() {
		n, q, fl := state()
		before = [3]uint64{uint64(n), uint64(q), fl}
	})
	e.Schedule(healAt, func() {
		n, q, fl := state()
		after = [3]uint64{uint64(n), uint64(q), fl}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if before[0] != 5 || before[1] != 5 || before[2] == 0 {
		t.Fatalf("scenario broken: before the crash %d entries, %d queued, floor %d; want 5, 5 and a floor", before[0], before[1], before[2])
	}
	if after != [3]uint64{} {
		t.Errorf("after the reboot %d entries, %d queued, floor %d; want none", after[0], after[1], after[2])
	}
	if len(runs) != 10 {
		t.Errorf("%d messages handled, want 10", len(runs))
	}
	for seq, n := range runs {
		if n != 1 {
			t.Errorf("seq %d handled %d times", seq, n)
		}
	}
}
