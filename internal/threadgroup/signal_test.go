package threadgroup

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestSignalLocalDelivery(t *testing.T) {
	ev := newEnv(t, 2, Config{})
	ev.run(t, func(p *sim.Proc) {
		gid, main, _ := ev.tgs[0].CreateGroup(p)
		if err := ev.tgs[0].Signal(p, gid, main.ID, SigUsr1); err != nil {
			t.Fatalf("Signal: %v", err)
		}
		sigs, err := ev.tgs[0].TakeSignals(gid, main.ID)
		if err != nil || len(sigs) != 1 || sigs[0] != SigUsr1 {
			t.Fatalf("TakeSignals = %v, %v", sigs, err)
		}
		// Consumed: second take is empty.
		sigs, _ = ev.tgs[0].TakeSignals(gid, main.ID)
		if len(sigs) != 0 {
			t.Fatalf("signals not consumed: %v", sigs)
		}
	})
}

func TestSignalRoutedToRemoteThread(t *testing.T) {
	ev := newEnv(t, 3, Config{})
	ev.run(t, func(p *sim.Proc) {
		gid, _, _ := ev.tgs[0].CreateGroup(p)
		worker, err := ev.tgs[0].Spawn(p, gid, 2, false)
		if err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		// Signal from a third kernel, routed via the origin.
		w2, err := ev.tgs[0].Spawn(p, gid, 1, false)
		if err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		_ = w2
		if err := ev.tgs[1].Signal(p, gid, worker.ID, SigTerm); err != nil {
			t.Fatalf("remote Signal: %v", err)
		}
		sigs, err := ev.tgs[2].TakeSignals(gid, worker.ID)
		if err != nil || len(sigs) != 1 || sigs[0] != SigTerm {
			t.Fatalf("TakeSignals = %v, %v", sigs, err)
		}
	})
}

func TestSignalFollowsMigrationChain(t *testing.T) {
	ev := newEnv(t, 3, Config{})
	ev.run(t, func(p *sim.Proc) {
		gid, main, _ := ev.tgs[0].CreateGroup(p)
		t1, _ := ev.tgs[0].Migrate(p, gid, main.ID, 1)
		t2, _ := ev.tgs[1].Migrate(p, gid, t1.ID, 2)
		// Deliver at the origin: member table routes straight to kernel 2.
		if err := ev.tgs[0].Signal(p, gid, t2.ID, SigUsr2); err != nil {
			t.Fatalf("Signal: %v", err)
		}
		sigs, err := ev.tgs[2].TakeSignals(gid, t2.ID)
		if err != nil || len(sigs) != 1 || sigs[0] != SigUsr2 {
			t.Fatalf("TakeSignals = %v, %v", sigs, err)
		}
	})
}

func TestPendingSignalsMigrateWithThread(t *testing.T) {
	ev := newEnv(t, 2, Config{})
	ev.run(t, func(p *sim.Proc) {
		gid, main, _ := ev.tgs[0].CreateGroup(p)
		if err := ev.tgs[0].Signal(p, gid, main.ID, SigUsr1); err != nil {
			t.Fatalf("Signal: %v", err)
		}
		moved, err := ev.tgs[0].Migrate(p, gid, main.ID, 1)
		if err != nil {
			t.Fatalf("Migrate: %v", err)
		}
		sigs, err := ev.tgs[1].TakeSignals(gid, moved.ID)
		if err != nil || len(sigs) != 1 || sigs[0] != SigUsr1 {
			t.Fatalf("pending signal lost in migration: %v, %v", sigs, err)
		}
	})
}

func TestWaitSignalBlocksUntilDelivery(t *testing.T) {
	ev := newEnv(t, 2, Config{})
	var gotAt, sentAt sim.Time
	ev.run(t, func(p *sim.Proc) {
		gid, main, _ := ev.tgs[0].CreateGroup(p)
		ev.e.Spawn("waiter", func(wp *sim.Proc) {
			sigs, err := ev.tgs[0].WaitSignal(wp, gid, main.ID)
			if err != nil || len(sigs) != 1 {
				t.Errorf("WaitSignal = %v, %v", sigs, err)
			}
			gotAt = wp.Now()
		})
		p.Sleep(time.Millisecond)
		sentAt = p.Now()
		if err := ev.tgs[0].Signal(p, gid, main.ID, SigUsr1); err != nil {
			t.Errorf("Signal: %v", err)
		}
	})
	if gotAt < sentAt {
		t.Fatalf("WaitSignal returned at %v, before send at %v", gotAt, sentAt)
	}
}

func TestSignalUnknownTaskFails(t *testing.T) {
	ev := newEnv(t, 2, Config{})
	ev.run(t, func(p *sim.Proc) {
		gid, _, _ := ev.tgs[0].CreateGroup(p)
		if err := ev.tgs[0].Signal(p, gid, 424242, SigTerm); err == nil {
			t.Fatal("signal to unknown task succeeded")
		}
		if err := ev.tgs[0].Signal(p, 999, 1, SigTerm); err == nil {
			t.Fatal("signal to unknown group succeeded")
		}
	})
}
