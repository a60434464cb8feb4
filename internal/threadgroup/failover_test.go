package threadgroup

import (
	"errors"
	"maps"
	"reflect"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/vm"
)

// originTables is a group's replicated origin state: the two tables a
// snapshot carries and a promotion installs (a member's checkpoint is its
// recoverable flag).
type originTables struct {
	Members  map[task.ID]member
	Replicas map[msg.NodeID]struct{}
}

func tablesOf(g *group) originTables {
	return originTables{g.members, g.replicas}
}

func mirroredTables(rep *groupRepl) originTables {
	return originTables{rep.Members, rep.Replicas}
}

// TestRecoverableCloneShipsOnce pins where recoverability is decided: in the
// clone. With the failover plane on, a recoverable clone, remote or local,
// sets the flag on the hosting kernel's task and on the origin's member
// record, and the origin ships the group once for it, so the successor's
// mirror never holds the member as non-recoverable. A replica may not clone
// a recoverable member.
func TestRecoverableCloneShipsOnce(t *testing.T) {
	ev := newEnv(t, 3, Config{})
	ev.fabric.EnableFailover()
	ev.run(t, func(p *sim.Proc) {
		gid, _, err := ev.tgs[0].CreateGroup(p)
		if err != nil {
			t.Fatal(err)
		}
		// The first clone onto kernel 1 registers the replica, which ships
		// on its own.
		if _, err := ev.tgs[0].Spawn(p, gid, 1, false); err != nil {
			t.Fatal(err)
		}
		shipped := ev.tgs[0].metrics.Counter("tg.failover.replicated")
		for _, dst := range []msg.NodeID{1, 0} {
			before := shipped.Value()
			tk, err := ev.tgs[0].Spawn(p, gid, dst, true)
			if err != nil {
				t.Fatal(err)
			}
			if got := shipped.Value() - before; got != 1 {
				t.Errorf("a recoverable clone onto kernel %d shipped the group %d times, want 1", dst, got)
			}
			if host := ev.tgs[dst].groups[gid].local[tk.ID]; host == nil || !host.Recoverable || !tk.Recoverable {
				t.Errorf("the task kernel %d hosts for clone %d is not recoverable", dst, tk.ID)
			}
			if !ev.tgs[0].groups[gid].members[tk.ID].recoverable {
				t.Errorf("the origin's record of clone %d is not recoverable", tk.ID)
			}
			if !ev.tgs[1].gmirrors[gid].Members[tk.ID].recoverable {
				t.Errorf("the successor's mirror of clone %d is not recoverable", tk.ID)
			}
		}
		if _, err := ev.tgs[1].Spawn(p, gid, 2, true); !errors.Is(err, errNotOrigin) {
			t.Errorf("a recoverable clone from a replica = %v, want errNotOrigin", err)
		}
	})
}

// TestMirrorsEqualOriginAtQuiescence is the replication invariant as a test:
// with the failover plane on and nothing crashing, once the machine is quiet
// every live group's two origin tables equal the mirror its ring successor
// holds, and a group that exited has no mirror left. Two groups with
// different origins (one whose successor wraps around the ring) go through
// every mutation that ships — spawns, migrations of plain and recoverable
// threads, member exits — and a third runs to its last exit. Then the first
// group's origin dies, and its successor's one promotion pass installs that
// mirror, address space included.
func TestMirrorsEqualOriginAtQuiescence(t *testing.T) {
	ev := newEnv(t, 4, Config{})
	ev.fabric.EnableFailover()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var gone vm.GID
	ev.run(t, func(p *sim.Proc) {
		// Group at origin 0, mirrored on kernel 1.
		gid, main, err := ev.tgs[0].CreateGroup(p)
		must(err)
		w1, err := ev.tgs[0].Spawn(p, gid, 1, true)
		must(err)
		w2, err := ev.tgs[0].Spawn(p, gid, 2, false)
		must(err)
		w1, err = ev.tgs[1].Migrate(p, gid, w1.ID, 3) // a recoverable move refreshes its checkpoint
		must(err)
		_, err = ev.tgs[0].Migrate(p, gid, main.ID, 2)
		must(err)
		must(ev.tgs[2].Exit(p, gid, w2.ID))

		// Group at origin 3, mirrored on kernel 0.
		gid3, main3, err := ev.tgs[3].CreateGroup(p)
		must(err)
		_, err = ev.tgs[3].Spawn(p, gid3, 0, false)
		must(err)
		moved, err := ev.tgs[3].Migrate(p, gid3, main3.ID, 1)
		must(err)
		_, err = ev.tgs[1].Migrate(p, gid3, moved.ID, 3)
		must(err)

		// Group at origin 1 that lives and dies.
		var mainG *task.Task
		gone, mainG, err = ev.tgs[1].CreateGroup(p)
		must(err)
		wg, err := ev.tgs[1].Spawn(p, gone, 2, false)
		must(err)
		must(ev.tgs[2].Exit(p, gone, wg.ID))
		must(ev.tgs[1].Exit(p, gone, mainG.ID))
		p.Sleep(time.Millisecond) // let the teardown notifications drain
	})

	live := 0
	for k, s := range ev.tgs {
		succ := ev.tgs[ev.fabric.Successor(msg.NodeID(k))]
		for gid, g := range s.groups {
			if !g.isOrigin {
				continue
			}
			live++
			rep, ok := succ.gmirrors[gid]
			if !ok {
				t.Errorf("group %d (origin %d): no mirror on kernel %d", gid, k, succ.node)
				continue
			}
			if rep.Origin != msg.NodeID(k) || rep.SnapVersion != g.snapVersion {
				t.Errorf("group %d: mirror is snapshot %d of origin %d, want %d of %d", gid, rep.SnapVersion, rep.Origin, g.snapVersion, k)
			}
			if got, want := mirroredTables(rep), tablesOf(g); !reflect.DeepEqual(got, want) {
				t.Errorf("group %d: mirror on kernel %d\n%+v\nwant the origin's tables\n%+v", gid, succ.node, got, want)
			}
		}
		if _, ok := s.gmirrors[gone]; ok {
			t.Errorf("kernel %d still mirrors exited group %d", k, gone)
		}
	}
	if live != 2 {
		t.Fatalf("%d live origin groups at quiescence, want 2", live)
	}
	// The first group's tables must have something in each for the
	// comparison to mean anything (restarted is set only after a crash).
	g := ev.tgs[0].groups[1]
	moved, recoverable := 0, 0
	for _, m := range g.members {
		if m.epoch > 0 {
			moved++
		}
		if m.recoverable {
			recoverable++
		}
	}
	if len(g.members) != 2 || len(g.replicas) < 3 || moved != 2 || recoverable != 1 {
		t.Fatalf("group 1's origin tables are thinner than the scenario meant: %+v", tablesOf(g))
	}

	// A snapshot is a copy, not an alias: the origin's next mutation must not
	// reach the mirror before the ship that carries it.
	rep := ev.tgs[1].gmirrors[1]
	before := mirroredTables(&groupRepl{
		Members: maps.Clone(rep.Members), Replicas: maps.Clone(rep.Replicas),
	})
	const ghost = task.ID(424242)
	g.members[ghost] = member{node: 3, epoch: 7, recoverable: true, restarted: true}
	g.replicas[3] = struct{}{}
	delete(g.replicas, 1)
	if got := mirroredTables(rep); !reflect.DeepEqual(got, before) {
		t.Errorf("mutating the origin's tables changed the mirror:\n%+v\nwas\n%+v", got, before)
	}

	// Kernel 0 dies after one layout commit. Each survivor runs what core's
	// peer-death hook runs. Kernel 1 promotes group 1: its replica set, in
	// both layers, is the snapshot's less the successor and the dead kernel;
	// a Munmap at the promoted origin reaches each of those replicas; and
	// neither layer keeps a mirror of the dead origin.
	want := maps.Clone(rep.Replicas)
	delete(want, 0)
	delete(want, 1)
	var area mem.Addr
	ev.run(t, func(p *sim.Proc) {
		sp, _ := ev.vms[0].Space(1)
		var err error
		area, err = sp.Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		must(err)
		for k := 1; k < 4; k++ {
			ev.vms[k].PeerDied(p, 0)
			ev.tgs[k].PeerDied(p, 0)
		}
	})
	succ, counters := ev.tgs[1], ev.vms[1].Metrics()
	if g := succ.groups[1]; !g.isOrigin || !reflect.DeepEqual(g.replicas, want) {
		t.Errorf("promoted group 1: origin %v, replicas %v, want the snapshot's less kernels 0 and 1: %v", g.isOrigin, g.replicas, want)
	}
	if _, kept := succ.gmirrors[1]; kept {
		t.Error("kernel 1 still mirrors group 1 after promoting it")
	}
	if got := counters.Counter("dir.failover.promoted").Value(); got != 1 {
		t.Fatalf("dir.failover.promoted = %d, want 1: the address space was not rebuilt from its mirror", got)
	}
	ev.run(t, func(p *sim.Proc) {
		sp, _ := ev.vms[1].Space(1)
		pushed := counters.Counter("vm.update.pushed").Value()
		must(sp.Unmap(p, area, hw.PageSize))
		if got := counters.Counter("vm.update.pushed").Value() - pushed; got != uint64(len(want)) {
			t.Errorf("Munmap at the promoted origin pushed to %d kernels, want %d", got, len(want))
		}
		for n := range want {
			if r, ok := ev.vms[n].Space(1); !ok || r.Version() != sp.Version() {
				t.Errorf("replica on kernel %d missed the promoted origin's Munmap", n)
			}
		}
		// The vm mirror went with the promotion: promoting again rebuilds
		// nothing.
		ev.vms[1].Promote(1, 0)
	})
	if got := counters.Counter("dir.failover.promoted").Value(); got != 1 {
		t.Error("kernel 1 still mirrors group 1's address space after promoting it")
	}
}
