package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// finishedLog is a ProcObserver that records ProcFinished calls by name.
type finishedLog struct{ names []string }

func (l *finishedLog) ProcStarted(parent, child *Proc) {}
func (l *finishedLog) ProcWoken(waker, woken *Proc)    {}
func (l *finishedLog) ProcFinished(p *Proc)            { l.names = append(l.names, p.name) }
func (l *finishedLog) SyncAcquire(p *Proc, key any)    {}
func (l *finishedLog) SyncRelease(p *Proc, key any)    {}

// runOne spawns a process that finishes at once and returns the carrier it
// ran on, now idle.
func runOne(t *testing.T, e Engine, name string) *carrier {
	t.Helper()
	p := e.Spawn(name, func(p *Proc) {})
	k := p.k
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if idle := e.idle; len(idle) == 0 || idle[len(idle)-1] != k {
		t.Fatalf("carrier of finished %q is not on top of the idle list", name)
	}
	return k
}

// TestCarriersBoundGoroutinesByPeakLiveProcs runs 10 000 spawn→finish cycles,
// eight processes live at a time: the host must hold no more goroutines than
// the peak number of live processes, and Close must hand every one of them
// back.
func TestCarriersBoundGoroutinesByPeakLiveProcs(t *testing.T) {
	const peak, cycles = 8, 10000
	base := runtime.NumGoroutine()
	e := NewEngine()
	ran := 0
	for ran < cycles {
		for i := 0; i < peak; i++ {
			e.Spawn("w", func(p *Proc) {
				p.Sleep(time.Microsecond)
				ran++
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if got := runtime.NumGoroutine() - base; got > peak {
		t.Fatalf("%d goroutines held after %d cycles with %d live at a time", got, ran, peak)
	}
	if got := len(e.idle); got != peak {
		t.Fatalf("%d idle carriers, want %d", got, peak)
	}
	e.Close()
	// Not != 0: a goroutine of an earlier test may still have been exiting
	// when base was read.
	if got := runtime.NumGoroutine() - base; got > 0 {
		t.Fatalf("Close left %d goroutines behind", got)
	}
}

// TestSpawnFinishSteadyStateAllocs pins what a short-lived process costs
// once a carrier is idle: its Proc record and nothing else (its dispatch
// events carry the process itself, not a closure) — and nothing at all when
// Start puts it on storage the caller reuses.
func TestSpawnFinishSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	body := func(p *Proc) {}
	runOne(t, e, "warm")
	allocs := testing.AllocsPerRun(100, func() {
		e.Spawn("w", body)
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	if allocs != 1 {
		t.Fatalf("spawn→finish on an idle carrier allocates %v allocs/op, want 1", allocs)
	}
	// On storage the caller owns and reuses, not even that.
	var s Proc
	allocs = testing.AllocsPerRun(100, func() {
		e.Start(&s, "w", body)
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("start→finish on reused storage allocates %v allocs/op, want 0", allocs)
	}
}

// TestCloseFinishesUndispatchedProcOnReusedCarrier closes the engine while a
// process sits assigned to a reused carrier that was never switched into for
// it: the body must not run, the usual teardown must, and neither that
// carrier nor the idle one may outlive Close.
func TestCloseFinishesUndispatchedProcOnReusedCarrier(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	log := &finishedLog{}
	e.SetProcObserver(log)
	e.Spawn("a1", func(p *Proc) {})
	e.Spawn("a2", func(p *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	reused := e.idle[len(e.idle)-1]
	ran := false
	b := e.Spawn("b", func(p *Proc) { ran = true })
	if b.k != reused || len(e.idle) != 1 {
		t.Fatalf("Spawn did not take the most recently idled carrier (idle=%d)", len(e.idle))
	}
	e.Close()
	if ran {
		t.Fatal("body ran although the engine closed before its first dispatch")
	}
	if !b.Finished() || len(e.procs) != 0 {
		t.Fatalf("finished=%v, %d procs left in the table", b.Finished(), len(e.procs))
	}
	if got := strings.Join(log.names, ","); got != "a1,a2,b" {
		t.Fatalf("ProcFinished saw %q, want a1,a2,b", got)
	}
	if got := runtime.NumGoroutine() - base; got > 0 || e.idle != nil {
		t.Fatalf("Close left %d goroutines and %d idle carriers behind", got, len(e.idle))
	}
}

// TestKillUnwindsParkedProcOnReusedCarrier kills a process parked on a
// second-hand carrier: its defers run, the kill is not a failure, and the
// carrier goes back to the idle list.
func TestKillUnwindsParkedProcOnReusedCarrier(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	k := runOne(t, e, "first")
	unwound, returned := false, false
	p := e.Spawn("victim", func(p *Proc) {
		defer func() { unwound = true }()
		p.Suspend()
		returned = true
	})
	if p.k != k {
		t.Fatal("victim did not reuse the idle carrier")
	}
	if err := e.RunFor(time.Microsecond); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	p.Kill()
	if err := e.Run(); err != nil {
		t.Fatalf("Run after Kill: %v", err)
	}
	if !unwound || returned || !p.Finished() {
		t.Fatalf("unwound=%v returned=%v finished=%v", unwound, returned, p.Finished())
	}
	if idle := e.idle; len(idle) != 1 || idle[0] != k {
		t.Fatalf("carrier did not return to the idle list (idle=%d)", len(idle))
	}
}

// TestPanicNamesCurrentTenantAndCarrierSurvives panics in a carrier's second
// tenant: the failure names that tenant, not an earlier one, and the carrier
// runs a third tenant normally.
func TestPanicNamesCurrentTenantAndCarrierSurvives(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	k := runOne(t, e, "first")
	if p := e.Spawn("second", func(p *Proc) { panic("boom") }); p.k != k {
		t.Fatal("second did not reuse the idle carrier")
	}
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `process "second" panicked: boom`) {
		t.Fatalf("Run = %v, want a panic report naming \"second\"", err)
	}
	// The engine keeps its first failure; clear it to drive the carrier on.
	e.failure = nil
	ran := false
	if p := e.Spawn("third", func(p *Proc) { p.Sleep(time.Microsecond); ran = true }); p.k != k {
		t.Fatal("third did not reuse the carrier that hosted the panic")
	}
	if err := e.Run(); err != nil || !ran {
		t.Fatalf("third tenant: Run = %v, ran = %v", err, ran)
	}
}

// TestStaleDispatchCannotAdvanceNextTenant aims dispatches at a finished
// process whose carrier already serves another: first the event a process
// leaves behind by resuming itself just before it returns, which fires when
// the new tenant is assigned but not yet started, then a late Resume and a
// replayed dispatch event once the new tenant is parked. None may switch into
// the carrier, which would start or resume the wrong body.
func TestStaleDispatchCannotAdvanceNextTenant(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	a := e.Spawn("a", func(p *Proc) { p.Resume() })
	k := a.k
	var b *Proc
	resumed := 0
	// Same instant, between a's dispatch and the one its Resume scheduled.
	e.Schedule(0, func() {
		b = e.Spawn("b", func(p *Proc) {
			p.Suspend()
			resumed++
		})
	})
	if err := e.RunFor(time.Microsecond); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if !a.Finished() || b.k != k {
		t.Fatalf("setup: a finished=%v, b on a's carrier=%v", a.Finished(), b.k == k)
	}
	a.Resume()
	a.dispatchIn(0)
	if err := e.RunFor(time.Microsecond); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if resumed != 0 || b.Finished() {
		t.Fatalf("a stale dispatch of \"a\" advanced \"b\" (resumed=%d)", resumed)
	}
	b.Resume()
	if err := e.Run(); err != nil || resumed != 1 {
		t.Fatalf("b's own Resume: Run = %v, resumed = %d", err, resumed)
	}
}

// TestGoexitInProcBodyReachesRunCaller is t.Fatal inside a process body:
// FailNow ends the calling goroutine with runtime.Goexit, here the carrier.
// The exit must surface on the goroutine that called Run — ending the test —
// instead of leaving Run waiting for a carrier that is gone.
func TestGoexitInProcBodyReachesRunCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	p := e.Spawn("fatal", func(p *Proc) { runtime.Goexit() })
	exited := make(chan bool)
	go func() {
		returned := false
		defer func() { exited <- !returned }()
		_ = e.Run()
		returned = true
	}()
	select {
	case byGoexit := <-exited:
		if !byGoexit {
			t.Fatal("Run returned normally; Goexit in the body was swallowed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after runtime.Goexit in a process body")
	}
	if !p.Finished() {
		t.Fatal("process not marked finished")
	}
	e.Close()
	// The Run goroutine is between its deferred send and its exit.
	for i := 0; i < 1000 && runtime.NumGoroutine() > base; i++ {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine() - base; got > 0 {
		t.Fatalf("%d goroutines left behind", got)
	}
}
