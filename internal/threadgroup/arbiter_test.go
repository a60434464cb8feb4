package threadgroup

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/vm"
)

// ask builds one request to the arbiter from kernel from about member id.
type ask func(from msg.NodeID, id task.ID) groupSetupReq

// requester stands for the asking kernel in expected member records, so a
// run from the origin and a run from a replica compare equal.
const requester = msg.NodeID(-1)

// TestArbiterDecidesAlikeInPlaceAndOverTheWire pins the one origin arbiter:
// the same move registrations and rollback claims, asked from the origin
// kernel itself (decided in place) and from a replica (decided by the
// TypeGroupSetup handler), get the same replies and leave the origin with the
// same member record. Each case starts from a member on the requesting kernel
// that has moved once (epoch 1); kernel 2 is the destination of every move.
func TestArbiterDecidesAlikeInPlaceAndOverTheWire(t *testing.T) {
	move := func(epoch int) ask {
		return func(from msg.NodeID, id task.ID) groupSetupReq {
			return groupSetupReq{Node: 2, MovedMember: id, MoveEpoch: epoch}
		}
	}
	claim := func(epoch int) ask {
		return func(from msg.NodeID, id task.ID) groupSetupReq {
			return groupSetupReq{Node: from, ClaimMember: id, MoveEpoch: epoch}
		}
	}
	cases := []struct {
		name    string
		asks    []ask
		replies []groupSetupReply
		want    member
	}{
		{"fresh move accepted", []ask{move(2)}, []groupSetupReply{{}}, member{node: 2, epoch: 2}},
		{"stale move denied", []ask{move(1)}, []groupSetupReply{{Denied: true}}, member{node: requester, epoch: 1}},
		{"claim granted bumps epoch", []ask{claim(1)}, []groupSetupReply{{}}, member{node: requester, epoch: 2}},
		{"claim after newer move denied", []ask{move(2), claim(1)}, []groupSetupReply{{}, {Denied: true}}, member{node: 2, epoch: 2}},
		{"claim from the kernel moved away from denied", []ask{move(2), claim(2)}, []groupSetupReply{{}, {Denied: true}}, member{node: 2, epoch: 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var runs [2]struct {
				replies []groupSetupReply
				rec     member
			}
			for from := range runs {
				runs[from].replies, runs[from].rec = askArbiter(t, msg.NodeID(from), c.asks)
			}
			for from, run := range runs {
				if !slices.Equal(run.replies, c.replies) || run.rec != c.want {
					t.Errorf("asked from kernel %d: replies %+v, record %+v; want %+v and %+v", from, run.replies, run.rec, c.replies, c.want)
				}
			}
			if !slices.Equal(runs[0].replies, runs[1].replies) || runs[0].rec != runs[1].rec {
				t.Errorf("in place %+v %+v, over the wire %+v %+v", runs[0].replies, runs[0].rec, runs[1].replies, runs[1].rec)
			}
		})
	}
}

// askArbiter boots three kernels with a group at origin 0 and members on
// kernels 1 and 2, gives the member on kernel `from` move epoch 1, puts each
// request to the origin from kernel `from`, and returns the replies and the
// origin's final record of that member (its node renamed to requester when it
// is `from`).
func askArbiter(t *testing.T, from msg.NodeID, asks []ask) ([]groupSetupReply, member) {
	ev := newEnv(t, 3, Config{})
	var replies []groupSetupReply
	var rec member
	ev.run(t, func(p *sim.Proc) {
		gid, main, err := ev.tgs[0].CreateGroup(p)
		if err != nil {
			t.Error(err)
			return
		}
		w1, err := ev.tgs[0].Spawn(p, gid, 1, false)
		if err == nil {
			_, err = ev.tgs[0].Spawn(p, gid, 2, false)
		}
		if err != nil {
			t.Error(err)
			return
		}
		id := main.ID
		if from == 1 {
			id = w1.ID
		}
		og := ev.tgs[0].groups[gid]
		og.members[id] = member{node: from, epoch: 1}
		g := ev.tgs[from].groups[gid]
		for _, a := range asks {
			req := a(from, id)
			req.GID = gid
			replies = append(replies, ev.tgs[from].askOrigin(p, g, req, "tg.test"))
		}
		rec = og.members[id]
	})
	if rec.node == from {
		rec.node = requester
	}
	return replies, rec
}

// TestMigrateAfterRestartIsSuperseded drives the arbiter's denial through a
// whole migration: the origin's degradation sweep restarts a recoverable
// member from its checkpoint while the kernel hosting it is still running
// it. That kernel's next Migrate imports the context at the destination,
// but the origin denies the move registration. Migrate returns
// ErrSuperseded, the stale copy is lost and its import dropped, and only the
// restarted incarnation exits.
func TestMigrateAfterRestartIsSuperseded(t *testing.T) {
	ev := newEnv(t, 3, Config{})
	var migErr error
	restarts := 0
	var stale *task.Task
	var gid vm.GID
	ev.run(t, func(p *sim.Proc) {
		var err error
		gid, _, err = ev.tgs[0].CreateGroup(p)
		if err != nil {
			t.Fatal(err)
		}
		w, err := ev.tgs[0].Spawn(p, gid, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		stale = ev.tgs[1].groups[gid].local[w.ID]
		ev.tgs[0].SetRestartHook(func(_ *sim.Proc, tk *task.Task) bool {
			restarts++
			ev.e.Spawn("restarted", func(rp *sim.Proc) {
				if err := ev.tgs[0].Exit(rp, gid, tk.ID); err != nil {
					t.Errorf("restarted incarnation's Exit: %v", err)
				}
			})
			return true
		})
		// The origin declares kernel 1 dead while kernel 1 runs on.
		ev.tgs[0].PeerDied(p, 1)
		_, migErr = ev.tgs[1].Migrate(p, gid, w.ID, 2)
	})
	if !errors.Is(migErr, ErrSuperseded) {
		t.Fatalf("Migrate after the restart = %v, want ErrSuperseded", migErr)
	}
	if restarts != 1 {
		t.Fatalf("restart hook ran %d times, want 1", restarts)
	}
	if got := ev.tgs[1].metrics.Counter("tg.migrate.superseded").Value(); got != 1 {
		t.Errorf("tg.migrate.superseded = %d, want 1", got)
	}
	if stale.State != task.StateLost {
		t.Errorf("the superseded copy ended %v, want lost", stale.State)
	}
	if got := ev.tgs[2].metrics.Counter("tg.migrate.ghostdrop").Value(); got != 1 {
		t.Errorf("tg.migrate.ghostdrop = %d on the destination, want 1", got)
	}
	exits := 0
	for k, s := range ev.tgs {
		exits += int(s.metrics.Counter("tg.exit").Value())
		want := 0
		if k == 0 {
			want = 1 // the main thread
		}
		if s.LocalTasks(gid) != want || s.Shadows(gid) != 0 {
			t.Errorf("kernel %d keeps %d live and %d shadow tasks of the group, want %d and 0", k, s.LocalTasks(gid), s.Shadows(gid), want)
		}
	}
	if exits != 1 {
		t.Errorf("%d incarnations exited, want exactly 1", exits)
	}
}
