package sim

import (
	"testing"
	"time"
	"unsafe"
)

// TestMutexSize pins a Mutex at its label, owner and queue: records made per
// page hold one by value, so it carries no counters.
func TestMutexSize(t *testing.T) {
	if got := unsafe.Sizeof(Mutex{}); got > 48 {
		t.Fatalf("unsafe.Sizeof(Mutex{}) = %d, want <= 48", got)
	}
}

func TestMutexExcludesAndHandsOffFIFO(t *testing.T) {
	e := NewEngine()
	m := NewMutex(e)
	var order []int
	waited := 0
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn("worker", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Nanosecond) // stagger arrival
			since := p.Now()
			m.Lock(p)
			if p.Now() != since {
				waited++
			}
			order = append(order, i)
			p.Sleep(10 * time.Microsecond)
			m.Unlock(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 4 {
		t.Fatalf("%d critical sections ran, want 4", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("critical-section order %v, want FIFO", order)
		}
	}
	if waited != 3 {
		t.Fatalf("%d workers waited for the lock, want 3", waited)
	}
}

// TestMutexZeroValueIsUsable pins the zero Mutex as an unlocked mutex that
// needs no constructor: a record can hold one by value, and it takes the
// engine from the process that locks it.
func TestMutexZeroValueIsUsable(t *testing.T) {
	e := NewEngine()
	var rec struct{ mu Mutex }
	rec.mu.SetLabel("by-value")
	const hold = 5 * time.Microsecond
	for i := 0; i < 3; i++ {
		e.Spawn("worker", func(p *Proc) {
			rec.mu.Lock(p)
			p.Sleep(hold)
			rec.mu.Unlock(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Now() != Time(3*hold) {
		t.Fatalf("three serialised holds ended at %v, want %v", e.Now(), 3*hold)
	}
	if rec.mu.owner != nil {
		t.Fatal("mutex still held after every worker unlocked")
	}
}

func TestMutexContentionWaitGrowsWithQueue(t *testing.T) {
	// Each of N procs holds the lock for H; the k-th waiter waits ~k*H, so
	// total wait is ~H*N*(N-1)/2. This queueing behaviour is the core of the
	// SMP contention model, so pin it down.
	const hold = 10 * time.Microsecond
	run := func(n int) time.Duration {
		e := NewEngine()
		m := NewMutex(e)
		var wait time.Duration
		for i := 0; i < n; i++ {
			e.Spawn("w", func(p *Proc) {
				since := p.Now()
				m.Lock(p)
				wait += p.Now().Sub(since)
				p.Sleep(hold)
				m.Unlock(p)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return wait
	}
	w4, w8 := run(4), run(8)
	want4 := hold * (4 * 3 / 2)
	want8 := hold * (8 * 7 / 2)
	if w4 != want4 {
		t.Fatalf("TotalWait(4) = %v, want %v", w4, want4)
	}
	if w8 != want8 {
		t.Fatalf("TotalWait(8) = %v, want %v", w8, want8)
	}
}

func TestMutexTryLock(t *testing.T) {
	e := NewEngine()
	m := NewMutex(e)
	e.Spawn("p", func(p *Proc) {
		if !m.tryLock(p) {
			t.Error("tryLock on free mutex failed")
		}
		if m.tryLock(p) {
			t.Error("tryLock on held mutex succeeded")
		}
		m.Unlock(p)
		if m.owner != nil {
			t.Error("mutex still locked after Unlock")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMutexRecursiveLockPanics(t *testing.T) {
	e := NewEngine()
	m := NewMutex(e)
	e.Spawn("p", func(p *Proc) {
		m.Lock(p)
		m.Lock(p)
	})
	if err := e.Run(); err == nil {
		t.Fatal("recursive lock did not fail")
	}
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	e := NewEngine()
	m := NewMutex(e)
	e.Spawn("a", func(p *Proc) { m.Lock(p); p.Suspend() })
	e.Spawn("b", func(p *Proc) {
		p.Sleep(time.Microsecond)
		m.Unlock(p)
	})
	defer e.Close()
	if err := e.Run(); err == nil {
		t.Fatal("unlock by non-owner did not fail")
	}
}

func TestRWMutexSharedReaders(t *testing.T) {
	e := NewEngine()
	l := NewRWMutex(e)
	var maxConcurrent, cur int
	for i := 0; i < 4; i++ {
		e.Spawn("reader", func(p *Proc) {
			l.RLock(p)
			cur++
			if cur > maxConcurrent {
				maxConcurrent = cur
			}
			p.Sleep(10 * time.Microsecond)
			cur--
			l.RUnlock(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if maxConcurrent != 4 {
		t.Fatalf("max concurrent readers = %d, want 4", maxConcurrent)
	}
}

func TestRWMutexWriterExcludesReaders(t *testing.T) {
	e := NewEngine()
	l := NewRWMutex(e)
	var writerDone, readerStart Time
	e.Spawn("writer", func(p *Proc) {
		l.Lock(p)
		p.Sleep(10 * time.Microsecond)
		writerDone = p.Now()
		l.Unlock(p)
	})
	e.Spawn("reader", func(p *Proc) {
		p.Sleep(time.Microsecond)
		l.RLock(p)
		readerStart = p.Now()
		l.RUnlock(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if readerStart < writerDone {
		t.Fatalf("reader entered at %v before writer finished at %v", readerStart, writerDone)
	}
}

func TestRWMutexWriterPreference(t *testing.T) {
	// A queued writer must block new readers (mmap_sem-style), so the writer
	// gets in after the current readers drain, before any late reader.
	e := NewEngine()
	l := NewRWMutex(e)
	var order []string
	e.Spawn("reader1", func(p *Proc) {
		l.RLock(p)
		p.Sleep(10 * time.Microsecond)
		order = append(order, "r1")
		l.RUnlock(p)
	})
	e.Spawn("writer", func(p *Proc) {
		p.Sleep(time.Microsecond)
		l.Lock(p)
		order = append(order, "w")
		l.Unlock(p)
	})
	e.Spawn("reader2", func(p *Proc) {
		p.Sleep(2 * time.Microsecond) // arrives after the writer queued
		l.RLock(p)
		order = append(order, "r2")
		l.RUnlock(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"r1", "w", "r2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRWMutexRUnlockWithoutReadersPanics(t *testing.T) {
	e := NewEngine()
	l := NewRWMutex(e)
	e.Spawn("p", func(p *Proc) { l.RUnlock(p) })
	if err := e.Run(); err == nil {
		t.Fatal("RUnlock with no readers did not fail")
	}
}

func TestWaitGroupBlocksUntilZero(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup()
	wg.Add(3)
	var doneAt Time
	e.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		i := i
		e.Spawn("worker", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond)
			wg.Done()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if doneAt != Time(3*time.Microsecond) {
		t.Fatalf("waiter released at %v, want 3µs", doneAt)
	}
}

func TestWaitGroupZeroCounterDoesNotBlock(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup()
	ran := false
	e.Spawn("p", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("Wait on zero counter blocked")
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter did not panic")
		}
	}()
	wg := NewWaitGroup()
	wg.Done()
}

func TestCondSignalWakesOldest(t *testing.T) {
	e := NewEngine()
	c := NewCond()
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("waiter", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Nanosecond)
			c.Wait(p)
			order = append(order, i)
		})
	}
	e.Spawn("signaler", func(p *Proc) {
		p.Sleep(time.Microsecond)
		for i := 0; i < 3; i++ {
			c.Signal()
			p.Sleep(time.Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("wake order %v, want FIFO", order)
		}
	}
}

func TestCondBroadcast(t *testing.T) {
	e := NewEngine()
	c := NewCond()
	woken := 0
	for i := 0; i < 5; i++ {
		e.Spawn("waiter", func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	e.Spawn("b", func(p *Proc) {
		p.Sleep(time.Microsecond)
		if c.q.n != 5 {
			t.Errorf("Waiters = %d, want 5", c.q.n)
		}
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}
