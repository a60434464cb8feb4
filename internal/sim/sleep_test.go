package sim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// A Sleep whose wake-up is next in line advances the clock in place instead
// of parking. These tests hold it to the one thing it promises: nothing but
// the hand-off count can tell the two paths apart.

// sleepScriptResult is what one run of the random script exposes.
type sleepScriptResult struct {
	resumes   []string // "time proc" at every resume point, in order
	finalRand uint64
	events    uint64
	seq       uint64 // sequence numbers handed out
	handoffs  uint64
	shadows   uint64
}

// runSleepScript runs a seeded random script of processes — sleeps of mixed
// lengths including zero, a contended mutex, timers — driven by RunUntil in
// slices. With shadow set, a no-op event is scheduled at exactly every sleep's
// wake instant, which puts an event at-or-before the wake-up on the heap and
// so forces the park path. The as-is run compensates under tie-shuffle with
// one discarded draw where the shadow run spends one on the shadow's
// priority, so every other event sees the same priority in both.
func runSleepScript(t *testing.T, seed int64, shuffle, shadow bool) sleepScriptResult {
	t.Helper()
	opts := []Option{WithSeed(seed)}
	if shuffle {
		opts = append(opts, WithTieShuffle())
	}
	e := NewEngine(opts...)
	defer e.Close()
	var res sleepScriptResult
	script := NewRNG(seed ^ 0x5eed) // the script's own stream, not the engine's
	mu := NewMutex(e)
	noop := func() {}
	sleep := func(p *Proc, d time.Duration) {
		if shadow {
			e.Schedule(d, noop)
			res.shadows++
		} else if shuffle {
			e.Rand().Uint64()
		}
		p.Sleep(d)
		res.resumes = append(res.resumes, fmt.Sprintf("%d %s", p.Now(), p.Name()))
	}
	for i := 0; i < 6; i++ {
		steps := make([]int, 40)
		for j := range steps {
			steps[j] = script.Intn(1000)
		}
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for _, s := range steps {
				switch {
				case s < 150:
					sleep(p, 0)
				case s < 600:
					sleep(p, time.Duration(s)*time.Nanosecond)
				case s < 750:
					sleep(p, time.Duration(s)*time.Microsecond)
				case s < 900:
					mu.Lock(p)
					sleep(p, time.Duration(s%7)*time.Microsecond)
					mu.Unlock(p)
				default:
					e.AfterFunc(time.Duration(s)*time.Nanosecond, noop)
				}
			}
		})
	}
	for until := Time(0); until < Time(40*time.Millisecond); until += Time(137 * time.Microsecond) {
		if err := e.RunUntil(until); err != nil {
			t.Fatalf("RunUntil(%v): %v", until, err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	res.finalRand = e.Rand().Uint64()
	res.events, res.seq, res.handoffs = e.EventsProcessed(), e.seq, e.Handoffs()
	return res
}

func TestSleepInPlaceEqualsParkedSleep(t *testing.T) {
	for _, shuffle := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			asIs := runSleepScript(t, seed, shuffle, false)
			forced := runSleepScript(t, seed, shuffle, true)
			name := fmt.Sprintf("seed %d shuffle %v", seed, shuffle)
			if len(asIs.resumes) != len(forced.resumes) {
				t.Fatalf("%s: %d resumes as is, %d with every sleep parked", name, len(asIs.resumes), len(forced.resumes))
			}
			for i := range asIs.resumes {
				if asIs.resumes[i] != forced.resumes[i] {
					t.Fatalf("%s: resume %d is %q as is, %q with every sleep parked", name, i, asIs.resumes[i], forced.resumes[i])
				}
			}
			if asIs.finalRand != forced.finalRand {
				t.Errorf("%s: engine RNG streams diverged", name)
			}
			if forced.events != asIs.events+forced.shadows || forced.seq != asIs.seq+forced.shadows {
				t.Errorf("%s: %d events (seq %d) as is, %d (seq %d) with %d shadows: not exactly the shadow count apart",
					name, asIs.events, asIs.seq, forced.events, forced.seq, forced.shadows)
			}
			if asIs.handoffs >= forced.handoffs {
				t.Errorf("%s: %d hand-offs as is, %d parked: the script never slept in place", name, asIs.handoffs, forced.handoffs)
			}
		}
	}
}

// TestSleepPastRunUntilBoundParks: the wake-up lies beyond the slice being
// run, so the drive loop would not dispatch it; Sleep must park and resume in
// the next slice, not run ahead of the clock RunUntil promises.
func TestSleepPastRunUntilBoundParks(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var wokeAt Time
	e.Spawn("p", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		wokeAt = p.Now()
	})
	if err := e.RunUntil(Time(5 * time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 0 || e.Now() != Time(5*time.Microsecond) || e.Handoffs() != 1 {
		t.Fatalf("after the first slice: woke at %v, now %v, %d hand-offs; want still asleep at 5µs after 1", wokeAt, e.Now(), e.Handoffs())
	}
	if err := e.RunUntil(Time(20 * time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if wokeAt != Time(10*time.Microsecond) || e.Handoffs() != 2 {
		t.Fatalf("woke at %v after %d hand-offs, want 10µs after 2", wokeAt, e.Handoffs())
	}
}

// TestEventLimitCutsInPlaceSleepsLikeParkedOnes: a run of sleeps stops with
// exactly n events processed whether event n would have been taken in place
// or (a pending event in front of it) dispatched.
func TestEventLimitCutsInPlaceSleepsLikeParkedOnes(t *testing.T) {
	for _, parked := range []bool{false, true} {
		for n := uint64(1); n <= 6; n++ {
			e := NewEngine()
			slept := 0
			e.Spawn("p", func(p *Proc) {
				for i := 0; i < 10; i++ {
					if parked {
						e.Schedule(time.Microsecond, func() {})
					}
					p.Sleep(time.Microsecond)
					slept++
				}
			})
			e.SetEventLimit(n)
			err := e.Run()
			if !errors.Is(err, ErrEventLimit) || e.EventsProcessed() != n {
				t.Fatalf("parked=%v limit %d: Run = %v after %d events", parked, n, err, e.EventsProcessed())
			}
			// Event 1 is the spawn; in the parked variant every sleep costs two.
			want := int(n) - 1
			if parked {
				want /= 2
			}
			if slept != want {
				t.Fatalf("parked=%v limit %d: %d sleeps completed, want %d", parked, n, slept, want)
			}
			e.Close()
		}
	}
}

// TestSleepAfterFailStopsTheRun: a failure recorded earlier in the same body
// ends the run when the current event completes, so the Sleep must park, not
// carry the failed run forward in place.
func TestSleepAfterFailStopsTheRun(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	boom := errors.New("boom")
	after := false
	e.Spawn("p", func(p *Proc) {
		e.Fail(boom)
		p.Sleep(time.Microsecond)
		after = true
	})
	if err := e.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want the recorded failure", err)
	}
	if after || e.Now() != 0 || e.EventsProcessed() != 1 {
		t.Fatalf("ran past the failure: after=%v now=%v events=%d", after, e.Now(), e.EventsProcessed())
	}
}

// TestInvariantIntervalSleepsAlwaysPark: the periodic sweep runs between
// events, so with it enabled no sleep may skip the event boundary.
func TestInvariantIntervalSleepsAlwaysPark(t *testing.T) {
	e := NewEngine(WithInvariantInterval(time.Microsecond))
	defer e.Close()
	sweeps := 0
	e.Invariant("count", func() error { sweeps++; return nil })
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(2 * time.Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Handoffs() != 6 || e.EventsProcessed() != 6 {
		t.Fatalf("%d hand-offs in %d events, want every one of 6 events a hand-off", e.Handoffs(), e.EventsProcessed())
	}
	if sweeps != 7 { // one per event boundary, one at quiescence
		t.Fatalf("%d invariant sweeps, want 7", sweeps)
	}
}

// TestYieldBehindSameInstantEventParks: Yield promises that pending
// same-instant events run first, so it is only taken in place when there are
// none.
func TestYieldBehindSameInstantEventParks(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var order []string
	e.Spawn("p", func(p *Proc) {
		p.Yield() // nothing pending: in place
		order = append(order, "alone")
		e.Schedule(0, func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "yielded")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[alone event yielded]" {
		t.Fatalf("order %v, want the pending event before the second yield returns", got)
	}
	if e.Handoffs() != 2 || e.EventsProcessed() != 4 {
		t.Fatalf("%d hand-offs in %d events, want 2 (spawn, second yield) in 4", e.Handoffs(), e.EventsProcessed())
	}
}
