package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faultinj"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/osi"
	"repro/internal/sanitize"
	"repro/internal/sim"
	"repro/internal/task"
)

// TestCheckpointedRestartEndToEnd is the recovery headline: a recoverable
// thread runs on kernel 1, kernel 1 crashes mid-execution, and the origin
// restarts the thread from its checkpoint on a surviving kernel instead of
// reaping it as lost. The restarted run executes in StateRecovered, leaves
// through the ordinary exit path, and Join observes the group draining to
// just the main thread — no member leaks, no double execution beyond the
// documented re-run from the checkpoint boundary.
func TestCheckpointedRestartEndToEnd(t *testing.T) {
	os := boot(t, 4)
	e := os.Engine()
	ck := os.AttachSanitizer(sanitize.Config{FailFast: true})
	os.EnableFaults(&faultinj.Plan{
		Seed:    1,
		Crashes: []faultinj.NodeCrash{{Node: 1, At: 500 * time.Microsecond}},
	}, msg.FaultConfig{})
	var (
		runs            int
		sawRecovered    bool
		recoveredKernel = -1
		finalVal        int64
	)
	e.Spawn("driver", func(p *sim.Proc) {
		pr, err := os.StartProcessOn(p, 0)
		if err != nil {
			t.Errorf("StartProcessOn: %v", err)
			return
		}
		if err := pr.SpawnRecoverable(p, 1, func(th osi.Thread) {
			runs++
			if th.(*Thread).task.State == task.StateRecovered {
				sawRecovered = true
				recoveredKernel = th.KernelID()
			}
			a, err := th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				panic(err)
			}
			if err := th.Store(a, 7); err != nil {
				panic(err)
			}
			// Long enough that the crash lands mid-execution.
			for i := 0; i < 30; i++ {
				th.Compute(100 * time.Microsecond)
			}
			v, err := th.Load(a)
			if err != nil {
				panic(err)
			}
			finalVal = v
		}); err != nil {
			t.Errorf("SpawnRecoverable: %v", err)
			return
		}
		// Join waits out the member table, so it sees the thread through its
		// death, the detection window, and the restarted execution.
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
	if r := ck.Report(); r != "" {
		t.Fatalf("sanitizer reports:\n%s", r)
	}
	if runs != 2 {
		t.Errorf("fn ran %d times, want 2 (original + exactly one restart)", runs)
	}
	if !sawRecovered {
		t.Error("restarted execution never observed StateRecovered")
	}
	if recoveredKernel != 0 {
		t.Errorf("restarted on kernel %d, want 0 (the origin)", recoveredKernel)
	}
	if finalVal != 7 {
		t.Errorf("restarted run read %d from its page, want 7", finalVal)
	}
	m := os.Metrics()
	if got := m.Counter("core.threads.lost").Value(); got != 1 {
		t.Errorf("core.threads.lost = %d, want 1 (the crashed incarnation)", got)
	}
	if got := m.Counter("tg.member.restarted").Value(); got != 1 {
		t.Errorf("tg.member.restarted = %d, want 1", got)
	}
	if got := m.Counter("core.threads.recovered").Value(); got != 1 {
		t.Errorf("core.threads.recovered = %d, want 1", got)
	}
	if got := m.Counter("tg.member.lost").Value(); got != 0 {
		t.Errorf("tg.member.lost = %d, want 0 (the restart replaces the lost-reap)", got)
	}
	// The surviving kernels must come out frame-clean; the dead kernel's
	// frames died with it and are exempt.
	if err := os.Conserved(); err != nil {
		t.Error(err)
	}
}

// TestOverlappingKernelCrashes loses two kernels inside the same detection
// window and requires the degradation paths to compose: the origin reaps
// the members it lost to each crash exactly once, the directory reclaim
// handles two dead sharers of the same pages, a futex waiter whose home
// kernel died is error-woken rather than wedged, and the run still
// quiesces with the sanitizer clean.
func TestOverlappingKernelCrashes(t *testing.T) {
	os := boot(t, 4)
	e := os.Engine()
	ck := os.AttachSanitizer(sanitize.Config{FailFast: true})
	os.EnableFaults(&faultinj.Plan{
		Seed: 1,
		Crashes: []faultinj.NodeCrash{
			{Node: 1, At: 600 * time.Microsecond},
			{Node: 2, At: 700 * time.Microsecond},
		},
	}, msg.FaultConfig{})
	var (
		survivorErr error
		waitErr     error
	)
	e.Spawn("driver", func(p *sim.Proc) {
		// Process A: origin on kernel 0, members spread over the cluster,
		// all sharing pages so both crashes leave dead sharers behind.
		prA, err := os.StartProcessOn(p, 0)
		if err != nil {
			t.Errorf("StartProcessOn A: %v", err)
			return
		}
		var base mem.Addr
		ready := sim.NewWaitGroup()
		ready.Add(1)
		if err := prA.Spawn(p, 0, func(th osi.Thread) {
			a, err := th.Mmap(4*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				panic(err)
			}
			for i := 0; i < 4; i++ {
				if err := th.Store(a+mem.Addr(i*hw.PageSize), int64(i)); err != nil {
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
		// Two doomed workers: each pulls shared copies, then computes long
		// enough to still be running when its kernel dies.
		for _, k := range []int{1, 2} {
			if err := prA.Spawn(p, k, func(th osi.Thread) {
				for i := 0; i < 4; i++ {
					if _, err := th.Load(base + mem.Addr(i*hw.PageSize)); err != nil {
						panic(err)
					}
				}
				th.Compute(10 * time.Millisecond)
			}); err != nil {
				t.Errorf("Spawn doomed worker: %v", err)
				return
			}
		}
		// A survivor on kernel 3 that re-faults the shared pages after both
		// crashes, against the post-reclaim directory.
		if err := prA.Spawn(p, 3, func(th osi.Thread) {
			th.Compute(4 * time.Millisecond)
			for i := 0; i < 4; i++ {
				v, err := th.Load(base + mem.Addr(i*hw.PageSize))
				if err != nil {
					survivorErr = err
					return
				}
				if v != int64(i) {
					survivorErr = fmt.Errorf("page %d = %d after reclaim, want %d", i, v, i)
					return
				}
			}
		}); err != nil {
			t.Errorf("Spawn survivor: %v", err)
			return
		}

		// Process B: origin on kernel 1 — the dying kernel — with a futex
		// waiter parked on kernel 3. Its wakeup is homed at kernel 1 and can
		// never arrive once the crash lands; the waiter must be error-woken.
		prB, err := os.StartProcessOn(p, 1)
		if err != nil {
			t.Errorf("StartProcessOn B: %v", err)
			return
		}
		if err := prB.Spawn(p, 3, func(th osi.Thread) {
			a, err := th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				panic(err)
			}
			waitErr = th.FutexWait(a, 0)
		}); err != nil {
			t.Errorf("Spawn waiter: %v", err)
			return
		}

		if err := prA.Join(p); err != nil {
			t.Errorf("Join A: %v", err)
		}
		if err := prA.Close(p); err != nil {
			t.Errorf("Close A: %v", err)
		}
		// Process B's origin died with its group; the survivors' PeerDied
		// reaping settles its accounting, so there is nothing left to Close.
		prB.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r := ck.Report(); r != "" {
		t.Fatalf("sanitizer reports:\n%s", r)
	}
	if survivorErr != nil {
		t.Errorf("survivor after double crash: %v", survivorErr)
	}
	if waitErr == nil {
		t.Error("futex waiter returned nil; its home kernel died and the wait must error-wake")
	}
	m := os.Metrics()
	if got := m.Counter("msg.fault.crash").Value(); got != 2 {
		t.Errorf("msg.fault.crash = %d, want 2", got)
	}
	if got := m.Counter("core.threads.lost").Value(); got != 2 {
		t.Errorf("core.threads.lost = %d, want 2 (one per crashed kernel)", got)
	}
	if got := m.Counter("tg.member.lost").Value(); got != 2 {
		t.Errorf("tg.member.lost = %d, want exactly 2 — overlapping crashes must not double-reap", got)
	}
	if got := m.Counter("futex.wait.deadhome").Value(); got != 1 {
		t.Errorf("futex.wait.deadhome = %d, want 1", got)
	}
	// Two survivors, each declaring two dead kernels.
	if got := m.Counter("msg.fault.declared").Value(); got != 4 {
		t.Errorf("msg.fault.declared = %d, want 4", got)
	}
	if err := os.Conserved(); err != nil {
		t.Error(err)
	}
}

// TestEvacuationUnderSuspicion pins the proactive path: a thread computing
// on a kernel whose failure detector has grown suspicious of the thread's
// origin (a partition shorter than DeadAfter) migrates itself to a healthy
// kernel instead of waiting to be declared lost. The partition heals inside
// the window, so nothing is declared, nothing is reaped, and the thread
// finishes on its evacuation target.
func TestEvacuationUnderSuspicion(t *testing.T) {
	os := boot(t, 4)
	e := os.Engine()
	ck := os.AttachSanitizer(sanitize.Config{FailFast: true})
	os.EnableFaults(&faultinj.Plan{
		Seed: 1,
		// The crash arms failure detection; kernel 3 hosts nothing.
		Crashes: []faultinj.NodeCrash{{Node: 3, At: 100 * time.Microsecond}},
		// The partition silences the worker's kernel from the group origin
		// long enough to enter the suspicion band, healing before DeadAfter.
		Partitions: []faultinj.Partition{{A: 0, B: 2, From: 500 * time.Microsecond, Until: 2550 * time.Microsecond}},
	}, msg.FaultConfig{})
	finalKernel := -1
	e.Spawn("driver", func(p *sim.Proc) {
		pr, err := os.StartProcessOn(p, 0)
		if err != nil {
			t.Errorf("StartProcessOn: %v", err)
			return
		}
		if err := pr.Spawn(p, 2, func(th osi.Thread) {
			// Small compute slices keep the evacuation check hot while the
			// suspicion window is open.
			for i := 0; i < 50; i++ {
				th.Compute(80 * time.Microsecond)
			}
			finalKernel = th.KernelID()
		}); err != nil {
			t.Errorf("Spawn: %v", err)
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
	if r := ck.Report(); r != "" {
		t.Fatalf("sanitizer reports:\n%s", r)
	}
	m := os.Metrics()
	if got := m.Counter("core.threads.evacuated").Value(); got == 0 {
		t.Error("suspicion window opened but the thread never evacuated")
	}
	if finalKernel != 1 {
		t.Errorf("thread finished on kernel %d, want 1 (the only unsuspected survivor)", finalKernel)
	}
	// The partition healed inside DeadAfter: no false declaration in either
	// direction, and therefore no reap and no restart.
	for _, link := range []string{"msg.fault.declared.k0-k2", "msg.fault.declared.k2-k0"} {
		if got := m.Counter(link).Value(); got != 0 {
			t.Errorf("%s = %d, want 0 (partition healed inside DeadAfter)", link, got)
		}
	}
	if got := m.Counter("tg.member.lost").Value(); got != 0 {
		t.Errorf("tg.member.lost = %d, want 0", got)
	}
	if got := m.Counter("tg.member.restarted").Value(); got != 0 {
		t.Errorf("tg.member.restarted = %d, want 0", got)
	}
	if got := m.Counter("core.threads.lost").Value(); got != 0 {
		t.Errorf("core.threads.lost = %d, want 0", got)
	}
}

// TestRejoinedKernelHostsNewWork heals a crashed kernel and then uses it
// for everything a kernel does: hosting a fresh group origin, accepting
// remote thread creation, serving VM faults, homing futexes, and receiving
// a migration. The reboot surfaces (TG, VM, futex, frames, scheduler) must
// leave the kernel indistinguishable from a freshly booted one.
func TestRejoinedKernelHostsNewWork(t *testing.T) {
	os := boot(t, 4)
	e := os.Engine()
	ck := os.AttachSanitizer(sanitize.Config{FailFast: true})
	os.EnableFaults(&faultinj.Plan{
		Seed:    1,
		Crashes: []faultinj.NodeCrash{{Node: 1, At: 300 * time.Microsecond}},
		Heals:   []faultinj.NodeHeal{{Node: 1, At: time.Millisecond}},
	}, msg.FaultConfig{})
	var total int64
	e.Spawn("driver", func(p *sim.Proc) {
		p.Sleep(4 * time.Millisecond) // well past the rejoin handshake
		// The healed kernel is the group origin: group creation, VM
		// authority and futex homes all live on post-reboot state.
		pr, err := os.StartProcessOn(p, 1)
		if err != nil {
			t.Errorf("StartProcessOn healed kernel: %v", err)
			return
		}
		var base mem.Addr
		ready := sim.NewWaitGroup()
		ready.Add(1)
		if err := pr.Spawn(p, 1, func(th osi.Thread) {
			a, err := th.Mmap(2*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				panic(err)
			}
			base = a
			ready.Done()
		}); err != nil {
			t.Errorf("Spawn on healed kernel: %v", err)
			return
		}
		ready.Wait(p)
		// Remote workers lock a futex homed on the healed kernel and bump a
		// shared counter; one of them then migrates onto the healed kernel.
		done := sim.NewWaitGroup()
		for _, k := range []int{0, 2} {
			k := k
			done.Add(1)
			if err := pr.Spawn(p, k, func(th osi.Thread) {
				defer done.Done()
				l := newLock(base + mem.Addr(hw.PageSize))
				for i := 0; i < 3; i++ {
					if err := l.lock(th); err != nil {
						panic(err)
					}
					if _, err := th.FetchAdd(base, 1); err != nil {
						panic(err)
					}
					if err := l.unlock(th); err != nil {
						panic(err)
					}
				}
				if k == 0 {
					if err := th.Migrate(1); err != nil {
						panic(err)
					}
					if _, err := th.FetchAdd(base, 1); err != nil {
						panic(err)
					}
				}
			}); err != nil {
				t.Errorf("Spawn worker: %v", err)
				return
			}
		}
		done.Wait(p)
		if err := pr.Spawn(p, 1, func(th osi.Thread) {
			v, err := th.Load(base)
			if err != nil {
				panic(err)
			}
			total = v
		}); err != nil {
			t.Errorf("Spawn checker: %v", err)
			return
		}
		pr.Wait(p)
		if err := pr.Close(p); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r := ck.Report(); r != "" {
		t.Fatalf("sanitizer reports:\n%s", r)
	}
	if total != 7 {
		t.Errorf("shared counter = %d, want 7 (3+3 locked increments + 1 post-migration)", total)
	}
	m := os.Metrics()
	if got := m.Counter("msg.fault.heal").Value(); got != 1 {
		t.Errorf("msg.fault.heal = %d, want 1", got)
	}
	if got := m.Counter("msg.fault.rejoined").Value(); got != 3 {
		t.Errorf("msg.fault.rejoined = %d, want 3", got)
	}
	// Every kernel — including the rebooted one — must come out frame-clean.
	if err := os.Conserved(); err != nil {
		t.Error(err)
	}
}
