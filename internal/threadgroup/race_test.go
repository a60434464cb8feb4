package threadgroup

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
)

// The failure-injection suite from DESIGN §6: operations that race a
// migration must serialise through the protocol — one side wins cleanly,
// the other observes a coherent error, and no state leaks either way.

func TestConcurrentMigrateOfSameTask(t *testing.T) {
	// Two processes race to migrate the same thread to different kernels.
	// The task table makes this naturally exclusive: the second mover must
	// fail with errBadMigration (the task is no longer live here), and
	// exactly one destination ends up hosting the thread.
	ev := newEnv(t, 3, Config{})
	results := make([]error, 2)
	done := sim.NewWaitGroup()
	done.Add(2)
	ev.e.Spawn("driver", func(p *sim.Proc) {
		gid, main, _ := ev.tgs[0].CreateGroup(p)
		for i, dst := range []int{1, 2} {
			i, dst := i, dst
			ev.e.Spawn(fmt.Sprintf("mover%d", i), func(mp *sim.Proc) {
				defer done.Done()
				_, results[i] = ev.tgs[0].Migrate(mp, gid, main.ID, msgNode(dst))
			})
		}
		done.Wait(p)
		// Exactly one winner.
		fails := 0
		for _, err := range results {
			if err != nil {
				fails++
				if !errors.Is(err, errBadMigration) {
					t.Errorf("loser got %v, want errBadMigration", err)
				}
			}
		}
		if fails != 1 {
			t.Errorf("%d movers failed, want exactly 1 (results=%v)", fails, results)
		}
		live := 0
		for k := 1; k <= 2; k++ {
			live += ev.tgs[k].LocalTasks(gid)
		}
		if live != 1 {
			t.Errorf("thread live on %d kernels, want 1", live)
		}
	})
	if err := ev.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestExitRacingMigration(t *testing.T) {
	// A thread migrates away while another process tries to exit it at the
	// old kernel: the exit must fail coherently (the task is a shadow
	// there), and exiting at the new kernel must succeed.
	ev := newEnv(t, 2, Config{})
	ev.run(t, func(p *sim.Proc) {
		gid, main, _ := ev.tgs[0].CreateGroup(p)
		moved, err := ev.tgs[0].Migrate(p, gid, main.ID, 1)
		if err != nil {
			t.Fatalf("Migrate: %v", err)
		}
		if err := ev.tgs[0].Exit(p, gid, main.ID); err == nil {
			t.Fatal("exit at the old kernel succeeded on a shadow")
		}
		if err := ev.tgs[1].Exit(p, gid, moved.ID); err != nil {
			t.Fatalf("exit at the new kernel: %v", err)
		}
	})
}

func TestMigrationUnderVMAChurn(t *testing.T) {
	// A thread migrates repeatedly while siblings map/unmap continuously;
	// the address space must stay coherent and teardown must be clean.
	ev := newEnv(t, 4, Config{DummyPool: 2})
	done := sim.NewWaitGroup()
	done.Add(3)
	ev.e.Spawn("driver", func(p *sim.Proc) {
		gid, main, _ := ev.tgs[0].CreateGroup(p)
		sp0, _ := ev.vms[0].Space(gid)
		anchor, err := sp0.Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		if err != nil {
			t.Errorf("Map: %v", err)
			return
		}
		// Mover: migrate the main task around the ring, writing the anchor
		// at each stop.
		ev.e.Spawn("mover", func(mp *sim.Proc) {
			defer done.Done()
			cur := main
			at := 0
			for i := 0; i < 12; i++ {
				dst := (at + 1) % 4
				moved, err := ev.tgs[at].Migrate(mp, gid, cur.ID, msgNode(dst))
				if err != nil {
					t.Errorf("migrate hop %d: %v", i, err)
					return
				}
				cur, at = moved, dst
				spd, _ := ev.vms[dst].Space(gid)
				if err := spd.Store(mp, 2*dst%8, anchor, int64(i)); err != nil {
					t.Errorf("anchor store at hop %d: %v", i, err)
					return
				}
			}
		})
		// Churners: map/touch/unmap from two other kernels.
		for c := 1; c <= 2; c++ {
			c := c
			ev.e.Spawn(fmt.Sprintf("churn%d", c), func(cp *sim.Proc) {
				defer done.Done()
				spc, ok := ev.vms[c].Space(gid)
				if !ok {
					// Kernel c hosts no replica yet; attach through a spawn.
					tk, err := ev.tgs[0].Spawn(cp, gid, msgNode(c), false)
					if err != nil {
						t.Errorf("churn spawn: %v", err)
						return
					}
					defer func() { _ = ev.tgs[c].Exit(cp, gid, tk.ID) }()
					spc, _ = ev.vms[c].Space(gid)
				}
				for i := 0; i < 10; i++ {
					a, err := spc.Map(cp, 2*hw.PageSize, mem.ProtRead|mem.ProtWrite)
					if err != nil {
						t.Errorf("churn map: %v", err)
						return
					}
					if err := spc.Store(cp, 2*c, a, int64(i)); err != nil {
						t.Errorf("churn store: %v", err)
						return
					}
					if err := spc.Unmap(cp, a, 2*hw.PageSize); err != nil {
						t.Errorf("churn unmap: %v", err)
						return
					}
					cp.Sleep(time.Microsecond)
				}
			})
		}
		done.Wait(p)
		// Final value of the anchor readable and identical from everywhere
		// the group lives.
		ref, err := sp0.Load(p, 0, anchor)
		if err != nil {
			t.Errorf("final anchor load: %v", err)
		}
		if ref != 11 {
			t.Errorf("anchor = %d, want 11", ref)
		}
	})
	if err := ev.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// msgNode converts an int kernel index to a fabric node ID.
func msgNode(k int) msg.NodeID { return msg.NodeID(k) }
