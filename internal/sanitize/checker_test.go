package sanitize

import (
	"strings"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
)

// The tests drive the Checker's hooks by hand on a bare engine — no fabric,
// no vm — with the checker attached as the engine's process observer, so the
// spawn, wake and lock edges come from the engine itself.

const (
	gid = int64(1)
	vpn = mem.VPN(0x10)
)

// newRig returns a bare engine with a fresh checker observing it.
func newRig(t *testing.T) (sim.Engine, *Checker) {
	e := sim.NewEngine()
	t.Cleanup(e.Close)
	c := New(e, Config{})
	e.SetProcObserver(c)
	return e, c
}

func run(t *testing.T, e sim.Engine) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestCoherenceViolations plays one hook sequence per case inside a single
// process and checks the checker reports exactly the expected kind (with a
// detail naming the check that fired), or nothing for a negative.
func TestCoherenceViolations(t *testing.T) {
	cases := []struct {
		name   string
		kind   string // "" when the sequence is legal
		detail string
		seq    func(c *Checker, p *sim.Proc)
	}{
		{"single-writer/exclusive-grant-over-holder", "single-writer", "exclusive grant", func(c *Checker, p *sim.Proc) {
			c.Grant(p, gid, vpn, 0, false, true, 1)
			c.Grant(p, gid, vpn, 1, true, false, 0)
		}},
		{"single-writer/exclusive-grant-after-revoke", "", "", func(c *Checker, p *sim.Proc) {
			c.Grant(p, gid, vpn, 0, false, true, 1)
			c.Revoked(p, gid, vpn, 0, false, true, 1)
			c.Grant(p, gid, vpn, 1, true, false, 0)
		}},
		{"single-writer/shared-grant-over-writer", "single-writer", "holds the page writable", func(c *Checker, p *sim.Proc) {
			c.Grant(p, gid, vpn, 0, true, true, 1)
			c.Grant(p, gid, vpn, 1, false, false, 0)
		}},
		{"single-writer/shared-grant-after-downgrade", "", "", func(c *Checker, p *sim.Proc) {
			c.Grant(p, gid, vpn, 0, true, true, 1)
			c.Revoked(p, gid, vpn, 0, true, true, 1)
			c.Grant(p, gid, vpn, 1, false, false, 0)
		}},
		{"single-writer/write-without-grant", "single-writer", "without an exclusive grant", func(c *Checker, p *sim.Proc) {
			c.Grant(p, gid, vpn, 0, false, true, 1)
			c.AccessWrite(p, 0, gid, vpn, 2)
		}},
		{"single-writer/write-while-other-writable", "single-writer", "also holds it writable", func(c *Checker, p *sim.Proc) {
			c.Grant(p, gid, vpn, 0, true, true, 1)
			c.Grant(p, gid, vpn, 1, true, false, 0)
			c.AccessWrite(p, 1, gid, vpn, 2)
		}},
		{"single-writer/write-with-exclusive-grant", "", "", func(c *Checker, p *sim.Proc) {
			c.Grant(p, gid, vpn, 0, true, true, 1)
			c.AccessWrite(p, 0, gid, vpn, 2)
		}},
		{"stale-read/grant", "stale-read", "carries stale value", func(c *Checker, p *sim.Proc) {
			c.Grant(p, gid, vpn, 0, true, true, 1)
			c.AccessWrite(p, 0, gid, vpn, 2)
			c.Revoked(p, gid, vpn, 0, false, true, 2)
			c.Grant(p, gid, vpn, 1, true, true, 1)
		}},
		{"stale-read/grant-current", "", "", func(c *Checker, p *sim.Proc) {
			c.Grant(p, gid, vpn, 0, true, true, 1)
			c.AccessWrite(p, 0, gid, vpn, 2)
			c.Revoked(p, gid, vpn, 0, false, true, 2)
			c.Grant(p, gid, vpn, 1, true, true, 2)
		}},
		{"stale-read/read", "stale-read", "stale copy survived", func(c *Checker, p *sim.Proc) {
			c.Grant(p, gid, vpn, 0, false, true, 5)
			c.AccessRead(p, 0, gid, vpn, 4)
		}},
		{"stale-read/read-current", "", "", func(c *Checker, p *sim.Proc) {
			c.Grant(p, gid, vpn, 0, false, true, 5)
			c.AccessRead(p, 0, gid, vpn, 5)
		}},
		{"stale-read/rmw", "stale-read", "atomic read", func(c *Checker, p *sim.Proc) {
			c.Grant(p, gid, vpn, 0, true, true, 5)
			c.AccessRMW(p, 0, gid, vpn, 4, 6, true)
		}},
		{"stale-read/rmw-current", "", "", func(c *Checker, p *sim.Proc) {
			c.Grant(p, gid, vpn, 0, true, true, 5)
			c.AccessRMW(p, 0, gid, vpn, 5, 6, true)
			c.AccessRead(p, 0, gid, vpn, 6)
		}},
		{"lost-writeback", "lost-writeback", "writes back 1", func(c *Checker, p *sim.Proc) {
			c.Grant(p, gid, vpn, 0, true, true, 1)
			c.AccessWrite(p, 0, gid, vpn, 2)
			c.Revoked(p, gid, vpn, 0, false, true, 1)
		}},
		{"lost-writeback/current", "", "", func(c *Checker, p *sim.Proc) {
			c.Grant(p, gid, vpn, 0, true, true, 1)
			c.AccessWrite(p, 0, gid, vpn, 2)
			c.Revoked(p, gid, vpn, 0, false, true, 2)
		}},
		{"no-grant", "no-grant", "without a granted copy", func(c *Checker, p *sim.Proc) {
			c.AccessRead(p, 0, gid, vpn, 0)
		}},
		{"no-grant/granted", "", "", func(c *Checker, p *sim.Proc) {
			c.Grant(p, gid, vpn, 0, false, true, 0)
			c.AccessRead(p, 0, gid, vpn, 0)
		}},
		{"version-regress", "version-regress", "went backwards: 2 after 3", func(c *Checker, p *sim.Proc) {
			c.LayoutApplied(0, gid, 3)
			c.LayoutApplied(0, gid, 2)
		}},
		{"version-regress/monotone", "", "", func(c *Checker, p *sim.Proc) {
			c.LayoutApplied(0, gid, 3)
			c.LayoutApplied(0, gid, 3)
			c.LayoutApplied(1, gid, 1) // per kernel: k1 may lag k0
			c.LayoutApplied(0, gid, 4)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, c := newRig(t)
			e.Spawn("k", func(p *sim.Proc) { tc.seq(c, p) })
			run(t, e)
			vs := c.Violations()
			if tc.kind == "" {
				if len(vs) != 0 {
					t.Fatalf("legal sequence reported:\n%s", c.Report())
				}
				return
			}
			for _, v := range vs {
				if v.Kind != tc.kind {
					t.Errorf("unexpected %s violation: %s", v.Kind, v.Detail)
				}
			}
			for _, v := range vs {
				if strings.Contains(v.Detail, tc.detail) {
					return
				}
			}
			t.Fatalf("no %s violation mentioning %q; got:\n%s", tc.kind, tc.detail, c.Report())
		})
	}
}

// TestRaceHappensBefore has a writer store to a page and a reader load it
// 1 ms later, on the same kernel with the page granted, so the coherence
// checks stay silent. With no edge between them the read is a race; each
// happens-before edge the checker tracks orders it.
func TestRaceHappensBefore(t *testing.T) {
	cases := []struct {
		name string
		race bool
		// rig spawns the writer and the reader; write and read are their
		// accesses.
		rig func(e sim.Engine, c *Checker, write, read func(p *sim.Proc))
	}{
		{"unsynchronized", true, func(e sim.Engine, c *Checker, write, read func(p *sim.Proc)) {
			e.Spawn("writer", write)
			e.Spawn("reader", func(p *sim.Proc) {
				p.Sleep(time.Millisecond)
				read(p)
			})
		}},
		{"spawn", false, func(e sim.Engine, c *Checker, write, read func(p *sim.Proc)) {
			e.Spawn("writer", func(p *sim.Proc) {
				write(p)
				p.Engine().Spawn("reader", func(p *sim.Proc) {
					p.Sleep(time.Millisecond)
					read(p)
				})
			})
		}},
		{"wake", false, func(e sim.Engine, c *Checker, write, read func(p *sim.Proc)) {
			reader := e.Spawn("reader", func(p *sim.Proc) {
				p.Suspend()
				read(p)
			})
			e.Spawn("writer", func(p *sim.Proc) {
				p.Sleep(time.Millisecond)
				write(p)
				reader.Resume()
			})
		}},
		{"message", false, func(e sim.Engine, c *Checker, write, read func(p *sim.Proc)) {
			m := &msg.Message{From: 0, To: 1, Seq: 1}
			e.Spawn("writer", func(p *sim.Proc) {
				write(p)
				c.MsgSent(p, m)
			})
			e.Spawn("reader", func(p *sim.Proc) {
				p.Sleep(time.Millisecond)
				c.MsgDelivered(p, m)
				read(p)
			})
		}},
		{"lock", false, func(e sim.Engine, c *Checker, write, read func(p *sim.Proc)) {
			mu := sim.NewMutex(e)
			e.Spawn("writer", func(p *sim.Proc) {
				mu.Lock(p)
				write(p)
				mu.Unlock(p)
			})
			e.Spawn("reader", func(p *sim.Proc) {
				p.Sleep(time.Millisecond)
				mu.Lock(p)
				read(p)
				mu.Unlock(p)
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, c := newRig(t)
			write := func(p *sim.Proc) {
				c.Grant(p, gid, vpn, 0, true, true, 0)
				c.AccessWrite(p, 0, gid, vpn, 7)
			}
			read := func(p *sim.Proc) { c.AccessRead(p, 0, gid, vpn, 7) }
			tc.rig(e, c, write, read)
			run(t, e)
			if vs := c.Violations(); len(vs) != 0 {
				t.Fatalf("coherence violations in a race test:\n%s", c.Report())
			}
			races := c.Races()
			if !tc.race {
				if len(races) != 0 {
					t.Fatalf("ordered accesses reported as a race:\n%s", c.Report())
				}
				return
			}
			if len(races) != 1 || races[0].Kind != "race" || !strings.Contains(races[0].Detail, `read of g1/p0x10 by "reader"`) {
				t.Fatalf("races = %v, want the reader's load", races)
			}
		})
	}
}

// TestRaceFilteredBySyncAddress: an unsynchronised pair on a page that is
// later used as a synchronisation word (a futex operation on it) is not a
// race — the protocol orders accesses to such words itself.
func TestRaceFilteredBySyncAddress(t *testing.T) {
	e, c := newRig(t)
	e.Spawn("writer", func(p *sim.Proc) {
		c.Grant(p, gid, vpn, 0, true, true, 0)
		c.AccessWrite(p, 0, gid, vpn, 7)
	})
	e.Spawn("reader", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		c.AccessRead(p, 0, gid, vpn, 7)
		if len(c.Races()) != 1 {
			t.Errorf("races before SyncOp = %v, want the candidate", c.Races())
		}
		c.SyncOp(p, gid, vpn)
	})
	run(t, e)
	if races := c.Races(); len(races) != 0 {
		t.Fatalf("race on a synchronisation word survived filtering: %v", races)
	}
}
