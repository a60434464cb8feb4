package core

import (
	"testing"
	"time"

	"repro/internal/faultinj"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/osi"
	"repro/internal/sanitize"
	"repro/internal/sim"
)

// TestFailoverExitPropagation is the origin-failover headline at the core
// layer: the kernel holding every origin role dies mid-run with the
// replication plane on. The ring successor must promote itself, workers
// hosted on the survivors must keep running through the handover, their
// exits must propagate to the promoted origin's member table (releasing the
// WaitMembers-driven Join), and nothing may come out reclaimed, orphaned or
// racy.
func TestFailoverExitPropagation(t *testing.T) {
	os := boot(t, 4)
	e := os.Engine()
	ck := os.AttachSanitizer(sanitize.Config{FailFast: true})
	os.EnableFailover()
	os.EnableFaults(&faultinj.Plan{
		Seed:    1,
		Crashes: []faultinj.NodeCrash{{Node: 0, At: 500 * time.Microsecond}},
	}, msg.FaultConfig{})
	var joinErr, closeErr error
	e.Spawn("driver", func(p *sim.Proc) {
		pr, err := os.StartProcessOn(p, 0)
		if err != nil {
			t.Errorf("StartProcessOn: %v", err)
			return
		}
		var base mem.Addr
		ready := sim.NewWaitGroup()
		ready.Add(1)
		if err := pr.Spawn(p, 0, func(th osi.Thread) {
			a, err := th.Mmap(4*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				panic(err)
			}
			for i := 0; i < 4; i++ {
				if err := th.Store(a+mem.Addr(i*hw.PageSize), int64(10+i)); err != nil {
					panic(err)
				}
			}
			base = a
			ready.Done()
		}); err != nil {
			t.Errorf("Spawn setup: %v", err)
			return
		}
		ready.Wait(p)
		// Three workers on the survivors compute well past the crash and the
		// detection window, touching pages the dead origin was authoritative
		// for, then exit normally — against the promoted origin.
		for k := 1; k <= 3; k++ {
			k := k
			if err := pr.Spawn(p, k, func(th osi.Thread) {
				for i := 0; i < 60; i++ {
					th.Compute(100 * time.Microsecond)
					if i%8 == 0 {
						if v, err := th.Load(base + mem.Addr((k%4)*hw.PageSize)); err != nil {
							panic(err)
						} else if v != int64(10+k%4) {
							t.Errorf("worker %d read %d, want %d", k, v, 10+k%4)
						}
					}
				}
			}); err != nil {
				t.Errorf("Spawn worker %d: %v", k, err)
				return
			}
		}
		// Join only after the handover: a Join parked inside the dead origin
		// would wait on a condition nobody signals (the documented
		// pre-crash-Join limitation).
		for os.Fabric().OriginHolder(0) == 0 {
			p.Sleep(250 * time.Microsecond)
		}
		joinErr = pr.Join(p)
		closeErr = pr.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r := ck.Report(); r != "" {
		t.Fatalf("sanitizer reports:\n%s", r)
	}
	if joinErr != nil {
		t.Errorf("Join through promoted origin: %v", joinErr)
	}
	if closeErr != nil {
		t.Errorf("Close through promoted origin: %v", closeErr)
	}
	m := os.Metrics()
	if got := m.Counter("msg.failover.promotions").Value(); got != 1 {
		t.Errorf("msg.failover.promotions = %d, want 1", got)
	}
	if got := m.Counter("tg.failover.promoted").Value(); got == 0 {
		t.Error("no group was promoted from its mirror")
	}
	if got := m.Counter("vm.pages.reclaimed").Value(); got != 0 {
		t.Errorf("vm.pages.reclaimed = %d, want 0 — the mirror must preserve every directory-known page", got)
	}
	if got := m.Counter("tg.exit.orphaned").Value(); got != 0 {
		t.Errorf("tg.exit.orphaned = %d, want 0 — post-failover exits must reach the promoted origin", got)
	}
	// Survivor kernels come out frame-clean; the dead kernel is exempt.
	if err := os.Conserved(); err != nil {
		t.Error(err)
	}
}

// TestSpawnAfterPromotion pins the one origin resolver: every process
// syscall reaches the kernel holding the origin role, so after the boot-time
// origin dies and its successor promotes itself, a Spawn lands at the
// promoted holder rather than at the dead kernel. The new thread runs, and
// Join and Close complete there. A worker on a survivor keeps the group
// alive across the promotion (the sweep reaps the main thread with kernel 0).
func TestSpawnAfterPromotion(t *testing.T) {
	os := boot(t, 4)
	e := os.Engine()
	os.EnableFailover()
	os.EnableFaults(&faultinj.Plan{
		Seed:    1,
		Crashes: []faultinj.NodeCrash{{Node: 0, At: 500 * time.Microsecond}},
	}, msg.FaultConfig{})
	ran := false
	var spawnErr, joinErr, closeErr error
	e.Spawn("driver", func(p *sim.Proc) {
		pr, err := os.StartProcessOn(p, 0)
		if err != nil {
			t.Errorf("StartProcessOn: %v", err)
			return
		}
		if err := pr.Spawn(p, 3, func(th osi.Thread) { th.Compute(20 * time.Millisecond) }); err != nil {
			t.Errorf("Spawn survivor: %v", err)
			return
		}
		for os.Fabric().OriginHolder(0) == 0 {
			p.Sleep(250 * time.Microsecond)
		}
		spawnErr = pr.Spawn(p, 2, func(th osi.Thread) {
			th.Compute(100 * time.Microsecond)
			ran = true
		})
		joinErr = pr.Join(p)
		closeErr = pr.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if spawnErr != nil {
		t.Fatalf("Spawn after promotion: %v", spawnErr)
	}
	if !ran {
		t.Error("the thread spawned after the promotion never ran")
	}
	if joinErr != nil {
		t.Errorf("Join through promoted origin: %v", joinErr)
	}
	if closeErr != nil {
		t.Errorf("Close through promoted origin: %v", closeErr)
	}
	if err := os.Conserved(); err != nil {
		t.Error(err)
	}
}

// TestFailoverDisabledKeepsLegacyDegradation pins the opt-in contract: with
// the plane off, the same crash follows the pre-failover paths — pages the
// dead origin was authoritative for are reclaimed, and no promotion happens.
func TestFailoverDisabledKeepsLegacyDegradation(t *testing.T) {
	os := boot(t, 4)
	e := os.Engine()
	os.EnableFaults(&faultinj.Plan{
		Seed:    1,
		Crashes: []faultinj.NodeCrash{{Node: 1, At: 400 * time.Microsecond}},
	}, msg.FaultConfig{})
	e.Spawn("driver", func(p *sim.Proc) {
		pr, err := os.StartProcessOn(p, 0)
		if err != nil {
			t.Errorf("StartProcessOn: %v", err)
			return
		}
		var base mem.Addr
		ready := sim.NewWaitGroup()
		ready.Add(1)
		if err := pr.Spawn(p, 0, func(th osi.Thread) {
			a, err := th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				panic(err)
			}
			base = a
			ready.Done()
		}); err != nil {
			t.Errorf("Spawn setup: %v", err)
			return
		}
		ready.Wait(p)
		// The doomed worker takes the page Modified and dies with it.
		if err := pr.Spawn(p, 1, func(th osi.Thread) {
			if err := th.Store(base, 42); err != nil {
				panic(err)
			}
			th.Compute(10 * time.Millisecond)
		}); err != nil {
			t.Errorf("Spawn doomed: %v", err)
			return
		}
		if err := pr.Join(p); err != nil {
			t.Errorf("Join: %v", err)
		}
		if err := pr.Close(p); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	m := os.Metrics()
	if got := m.Counter("msg.failover.promotions").Value(); got != 0 {
		t.Errorf("msg.failover.promotions = %d, want 0 with the plane off", got)
	}
	if got := m.Counter("dir.failover.replicated").Value(); got != 0 {
		t.Errorf("dir.failover.replicated = %d, want 0 with the plane off", got)
	}
	if got := m.Counter("vm.pages.reclaimed").Value(); got == 0 {
		t.Error("legacy degradation reclaimed nothing; the dead owner's page should be reclaimed")
	}
}
