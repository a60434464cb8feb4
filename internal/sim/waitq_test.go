package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// fifoModel is one queue of the reference the wait queues are checked against:
// a plain slice, appended to when a process enters and popped when it leaves,
// which must happen in arrival order.
type fifoModel struct {
	t     *testing.T
	name  string
	queue []int
}

func (m *fifoModel) arrive(id int) { m.queue = append(m.queue, id) }

func (m *fifoModel) leave(id int) {
	m.t.Helper()
	if len(m.queue) == 0 || m.queue[0] != id {
		m.t.Fatalf("%s: proc %d out of order; reference queue %v", m.name, id, m.queue)
	}
	m.queue = m.queue[1:]
}

// moveTo hands the oldest n waiters of m on to dst, in order.
func (m *fifoModel) moveTo(dst *fifoModel, n int) {
	dst.queue = append(dst.queue, m.queue[:n]...)
	m.queue = m.queue[n:]
}

// TestWaitQueuesAreFIFOAgainstReferenceModel drives a Mutex, an RWMutex and a
// Cond with seeded random mixes of Lock, RLock, Wait, Signal and Broadcast
// beside a reference model built from slices: waiters are granted each lock and
// woken in the order they queued (writers ahead of readers), the queue depths
// agree at every step, and readers never overlap a writer.
func TestWaitQueuesAreFIFOAgainstReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			e := NewEngine(WithSeed(seed))
			defer e.Close()
			rng := NewRNG(seed)
			mu, rw, cond := NewMutex(e), NewRWMutex(e), NewCond()
			model := func(name string) *fifoModel { return &fifoModel{t: t, name: name} }
			// Per queue: who waits, and who has been released (granted the
			// lock, signalled) but has not resumed yet — each in order.
			muQ, muOut := model("mutex"), model("mutex grants")
			readQ, readOut := model("rwmutex readers"), model("rwmutex reader grants")
			writeQ, writeOut := model("rwmutex writers"), model("rwmutex writer grants")
			condQ, condOut := model("cond"), model("cond wake-ups")
			muHeld, rwWriter, rwReaders := false, false, 0
			promote := func() {
				switch {
				case len(writeQ.queue) > 0:
					writeQ.moveTo(writeOut, 1)
					rwWriter = true
				case len(readQ.queue) > 0:
					rwReaders += len(readQ.queue)
					readQ.moveTo(readOut, len(readQ.queue))
				}
			}
			inside := [2]int{} // readers, writers past their lock call
			check := func() {
				t.Helper()
				if mu.Waiters() != len(muQ.queue) || rw.Waiters() != len(readQ.queue)+len(writeQ.queue) || cond.q.n != len(condQ.queue) {
					t.Fatalf("depths: mutex %d/%d rwmutex %d/%d cond %d/%d (queue/model)", mu.Waiters(), len(muQ.queue),
						rw.Waiters(), len(readQ.queue)+len(writeQ.queue), cond.q.n, len(condQ.queue))
				}
				if (mu.owner != nil) != muHeld || inside[1] > 1 || inside[1] == 1 && inside[0] > 0 {
					t.Fatalf("mutex locked=%v model %v; %d readers and %d writers inside the rwmutex", (mu.owner != nil), muHeld, inside[0], inside[1])
				}
			}
			const procs, rounds = 12, 40
			done := 0
			for id := 0; id < procs; id++ {
				e.Spawn(fmt.Sprint("w", id), func(p *Proc) {
					for r := 0; r < rounds; r++ {
						p.Sleep(time.Duration(rng.intn(400)) * time.Nanosecond)
						hold := time.Duration(50+rng.intn(300)) * time.Nanosecond
						switch rng.intn(4) {
						case 0:
							if muHeld {
								muQ.arrive(id)
								mu.Lock(p)
								muOut.leave(id)
							} else {
								muHeld = true
								mu.Lock(p)
							}
							check()
							p.Sleep(hold)
							if muHeld = len(muQ.queue) > 0; muHeld {
								muQ.moveTo(muOut, 1)
							}
							mu.Unlock(p)
						case 1:
							if rwWriter || len(writeQ.queue) > 0 {
								readQ.arrive(id)
								rw.RLock(p)
								readOut.leave(id)
							} else {
								rwReaders++
								rw.RLock(p)
							}
							inside[0]++
							check()
							p.Sleep(hold)
							inside[0]--
							if rwReaders--; rwReaders == 0 {
								promote()
							}
							rw.RUnlock(p)
						case 2:
							if rwWriter || rwReaders > 0 {
								writeQ.arrive(id)
								rw.Lock(p)
								writeOut.leave(id)
							} else {
								rwWriter = true
								rw.Lock(p)
							}
							inside[1]++
							check()
							p.Sleep(hold)
							inside[1]--
							rwWriter = false
							promote()
							rw.Unlock(p)
						case 3:
							condQ.arrive(id)
							cond.Wait(p)
							condOut.leave(id)
						}
						check()
					}
					done++
				})
			}
			e.Spawn("signaler", func(p *Proc) {
				for done < procs {
					p.Sleep(time.Duration(100+rng.intn(500)) * time.Nanosecond)
					if rng.intn(3) == 0 {
						condQ.moveTo(condOut, len(condQ.queue))
						cond.Broadcast()
					} else {
						condQ.moveTo(condOut, min(1, len(condQ.queue)))
						cond.Signal()
					}
					check()
				}
			})
			if err := e.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if done != procs {
				t.Fatalf("%d of %d workers finished", done, procs)
			}
		})
	}
}

// runFor is RunFor that must succeed.
func runFor(t *testing.T, e Engine, d time.Duration) {
	t.Helper()
	if err := e.RunFor(d); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
}

// TestMutexWaiterKilledWhileQueued pins what happens to a lock whose next
// waiter was killed in the queue: its slot outlives it, so the hand-off goes to
// a finished process, the lock is never released again, and the waiters behind
// it report the dead process as the holder.
func TestMutexWaiterKilledWhileQueued(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	mu := NewMutex(e).SetLabel(labelOf("lost"))
	e.Spawn("holder", func(p *Proc) {
		mu.Lock(p)
		p.Sleep(10 * time.Microsecond)
		mu.Unlock(p)
	})
	gotLock := false
	victim := e.Spawn("victim", func(p *Proc) { p.Sleep(time.Microsecond); mu.Lock(p); gotLock = true })
	e.Spawn("behind", func(p *Proc) { p.Sleep(2 * time.Microsecond); mu.Lock(p); gotLock = true })
	runFor(t, e, 5*time.Microsecond)
	victim.Kill()
	runFor(t, e, time.Microsecond)
	if !victim.Finished() || mu.Waiters() != 2 {
		t.Fatalf("after the kill: victim finished=%v, %d waiters; want true and 2 (the slot outlives the process)", victim.Finished(), mu.Waiters())
	}
	err := e.Run()
	var de *DeadlockError
	if !errors.As(err, &de) || len(de.Waits) != 1 {
		t.Fatalf("Run = %v, want a deadlock with one blocked process", err)
	}
	if w := de.Waits[0]; w.Name != "behind" || w.Kind != "mutex" || w.HolderName != "victim" {
		t.Fatalf("blocked %+v, want \"behind\" waiting for the mutex held by \"victim\"", w)
	}
	if gotLock || mu.owner != victim || mu.Waiters() != 1 {
		t.Fatalf("gotLock=%v owner=%v waiters=%d; want the lock handed to the dead victim and one waiter left", gotLock, mu.owner.Name(), mu.Waiters())
	}
}

// TestRWMutexWaitersKilledWhileQueued is the same pin for both RWMutex queues:
// a dead writer is handed the lock, and a dead reader is counted in.
func TestRWMutexWaitersKilledWhileQueued(t *testing.T) {
	t.Run("writer", func(t *testing.T) {
		e := NewEngine()
		defer e.Close()
		l := NewRWMutex(e)
		e.Spawn("holder", func(p *Proc) { l.Lock(p); p.Sleep(10 * time.Microsecond); l.Unlock(p) })
		victim := e.Spawn("victim", func(p *Proc) { p.Sleep(time.Microsecond); l.Lock(p) })
		entered := false
		e.Spawn("reader", func(p *Proc) { p.Sleep(2 * time.Microsecond); l.RLock(p); entered = true })
		runFor(t, e, 5*time.Microsecond)
		victim.Kill()
		if err := e.Run(); !errors.Is(err, ErrDeadlock) {
			t.Fatalf("Run = %v, want a deadlock behind the dead writer", err)
		}
		if entered || l.Waiters() != 1 {
			t.Fatalf("entered=%v waiters=%d; want the reader still queued behind the dead writer's hold", entered, l.Waiters())
		}
		if wi, ok := victim.waitingOn(); ok {
			t.Fatalf("finished victim still reports a wait: %+v", wi)
		}
	})
	t.Run("reader", func(t *testing.T) {
		e := NewEngine()
		defer e.Close()
		l := NewRWMutex(e)
		e.Spawn("holder", func(p *Proc) { l.Lock(p); p.Sleep(10 * time.Microsecond); l.Unlock(p) })
		victim := e.Spawn("victim", func(p *Proc) { p.Sleep(time.Microsecond); l.RLock(p); l.RUnlock(p) })
		live := false
		e.Spawn("reader", func(p *Proc) { p.Sleep(2 * time.Microsecond); l.RLock(p); live = true; l.RUnlock(p) })
		wrote := false
		e.Spawn("writer", func(p *Proc) { p.Sleep(20 * time.Microsecond); l.Lock(p); wrote = true })
		runFor(t, e, 5*time.Microsecond)
		victim.Kill()
		if err := e.Run(); !errors.Is(err, ErrDeadlock) {
			t.Fatalf("Run = %v, want the late writer deadlocked behind the dead reader's hold", err)
		}
		if !live || wrote || l.readers != 1 {
			t.Fatalf("live reader entered=%v, writer entered=%v, %d readers; want true, false and 1 (the dead reader's hold)",
				live, wrote, l.readers)
		}
	})
}

// TestCondWaiterKilledWhileQueued: the dead waiter's slot swallows the Signal
// that reaches it.
func TestCondWaiterKilledWhileQueued(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	c := NewCond()
	victim := e.Spawn("victim", func(p *Proc) { c.Wait(p) })
	woke := false
	e.Spawn("behind", func(p *Proc) { p.Sleep(time.Microsecond); c.Wait(p); woke = true })
	runFor(t, e, 2*time.Microsecond)
	victim.Kill()
	runFor(t, e, time.Microsecond)
	if c.q.n != 2 {
		t.Fatalf("%d waiters after the kill, want 2", c.q.n)
	}
	c.Signal()
	runFor(t, e, time.Microsecond)
	if woke || c.q.n != 1 {
		t.Fatalf("first Signal: woke=%v waiters=%d; want it spent on the dead waiter", woke, c.q.n)
	}
	c.Signal()
	if err := e.Run(); err != nil || !woke {
		t.Fatalf("second Signal: Run = %v, woke = %v", err, woke)
	}
}

// TestWaitGroupWaiterKilledWhileQueued: releasing a group with a dead waiter
// in it wakes the live ones and nothing else.
func TestWaitGroupWaiterKilledWhileQueued(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	wg := NewWaitGroup()
	wg.Add(1)
	victim := e.Spawn("victim", func(p *Proc) { wg.Wait(p) })
	woke := false
	e.Spawn("behind", func(p *Proc) { wg.Wait(p); woke = true })
	runFor(t, e, time.Microsecond)
	victim.Kill()
	runFor(t, e, time.Microsecond)
	wg.Done()
	if err := e.Run(); err != nil || !woke || !victim.Finished() {
		t.Fatalf("Run = %v, woke = %v, victim finished = %v", err, woke, victim.Finished())
	}
}

// TestHolderIsReadWhenAsked: a waiter names whoever holds the lock at the
// moment of the question, through every hand-off, without the hand-offs
// touching it.
func TestHolderIsReadWhenAsked(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	mu := NewMutex(e)
	for _, name := range []string{"a", "b", "c"} {
		e.Spawn(name, func(p *Proc) { mu.Lock(p); p.Sleep(10 * time.Microsecond); mu.Unlock(p) })
	}
	var last *Proc
	holders := ""
	last = e.Spawn("last", func(p *Proc) { p.Sleep(time.Microsecond); mu.Lock(p); mu.Unlock(p) })
	for i := 0; i < 3; i++ {
		runFor(t, e, 10*time.Microsecond-1)
		wi, ok := last.waitingOn()
		if !ok || wi.Kind != "mutex" || wi.Holder == nil {
			t.Fatalf("round %d: waitingOn = %+v, %v", i, wi, ok)
		}
		holders += wi.Holder.Name()
		runFor(t, e, 1)
	}
	if holders != "abc" {
		t.Fatalf("holders seen by the last waiter: %q, want \"abc\"", holders)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestStartReusesStorageAndDropsStaleDispatch runs two processes, one after
// the other, on one caller-owned Proc, with a dispatch event of the first
// still pending when the second is started: the event must be dropped — as one
// processed event, switching into nothing — and the second process must see
// only its own wake-ups.
func TestStartReusesStorageAndDropsStaleDispatch(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var s Proc
	// a wakes itself while running, then finishes: the wake-up it leaves
	// behind is addressed to a's pid on s.
	e.Start(&s, "a", func(p *Proc) { p.Resume() })
	pidA := s.ID()
	resumed := 0
	// Same instant, between a's dispatch and the one its Resume scheduled.
	e.Schedule(0, func() {
		if !s.Finished() || s.Killed() {
			t.Errorf("a: finished=%v killed=%v before its storage is reused", s.Finished(), s.Killed())
		}
		e.Start(&s, "b", func(p *Proc) {
			p.Suspend()
			resumed++
		})
	})
	runFor(t, e, time.Microsecond)
	if s.ID() == pidA || s.Name() != "b" || s.Finished() {
		t.Fatalf("storage now runs %q pid %d finished=%v; want a fresh pid for \"b\", unfinished", s.Name(), s.ID(), s.Finished())
	}
	// a's dispatch, the callback, a's stale dispatch, b's dispatch.
	if ev, ho := e.EventsProcessed(), e.Handoffs(); ev != 4 || ho != 2 || resumed != 0 {
		t.Fatalf("%d events, %d hand-offs, b resumed %d times; want 4, 2 and 0 (the stale dispatch is an event but not a hand-off)", ev, ho, resumed)
	}
	s.Resume()
	if err := e.Run(); err != nil || resumed != 1 || !s.Finished() {
		t.Fatalf("b's own Resume: Run = %v, resumed = %d, finished = %v", err, resumed, s.Finished())
	}
}

// TestStartRefusesLiveOrKilledStorage: the two states whose storage other
// structures may still name.
func TestStartRefusesLiveOrKilledStorage(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "sim: Start on the storage") {
				t.Fatalf("Start on %s storage: recovered %v, want the storage panic", what, r)
			}
		}()
		fn()
	}
	var live, killed Proc
	e.Start(&live, "live", func(p *Proc) { p.Suspend() })
	e.Start(&killed, "killed", func(p *Proc) { p.Suspend() })
	runFor(t, e, time.Microsecond)
	mustPanic("live", func() { e.Start(&live, "again", func(p *Proc) {}) })
	killed.Kill()
	runFor(t, e, time.Microsecond)
	if !killed.Finished() {
		t.Fatal("killed process did not finish")
	}
	mustPanic("killed", func() { e.Start(&killed, "again", func(p *Proc) {}) })
	live.Resume()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSpawnHandleStaysFinishedForEver: Spawn's storage is never reused, so a
// handle kept past 10 000 later processes still reads finished, under its own
// pid and name.
func TestSpawnHandleStaysFinishedForEver(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	first := e.Spawn("first", func(p *Proc) {})
	pid := first.ID()
	var s Proc
	for i := 0; i < 10000; i++ {
		if i%2 == 0 {
			e.Spawn("later", func(p *Proc) {})
		} else {
			e.Start(&s, "later", func(p *Proc) {})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if !first.Finished() || first.ID() != pid || first.Name() != "first" {
		t.Fatalf("handle now reads finished=%v pid=%d name=%q", first.Finished(), first.ID(), first.Name())
	}
	if n := len(e.procs); n != 0 {
		t.Fatalf("%d processes left in the table", n)
	}
}
