package faultinj

import (
	"testing"
	"time"
)

// TestDecideDeterministic: two plans with the same seed and rules make the
// same decision sequence; a different seed diverges somewhere.
func TestDecideDeterministic(t *testing.T) {
	mk := func(seed int64) *Plan {
		return &Plan{Seed: seed, Rules: []Rule{{
			From: Wildcard, To: Wildcard, Type: Wildcard,
			DropP: 0.3, DupP: 0.3, DelayP: 0.3, DelayMax: 10 * time.Microsecond,
		}}}
	}
	a, b, c := mk(7), mk(7), mk(8)
	same, diverged := true, false
	for i := 0; i < 256; i++ {
		da, db, dc := a.Decide(0, 1, 3), b.Decide(0, 1, 3), c.Decide(0, 1, 3)
		if da != db {
			same = false
		}
		if da != dc {
			diverged = true
		}
	}
	if !same {
		t.Error("identical seeds made different decisions")
	}
	if !diverged {
		t.Error("different seeds never diverged in 256 draws")
	}
}

// TestRuleFirstMatchWins: a leading all-zero rule exempts its match from
// later wildcard rules.
func TestRuleFirstMatchWins(t *testing.T) {
	pl := &Plan{Seed: 1, Rules: []Rule{
		{From: Wildcard, To: Wildcard, Type: 5}, // exemption: no faults
		{From: Wildcard, To: Wildcard, Type: Wildcard, DropP: 1},
	}}
	for i := 0; i < 32; i++ {
		if d := pl.Decide(0, 1, 5); d.Drop {
			t.Fatal("exempted type was dropped")
		}
		if d := pl.Decide(0, 1, 6); !d.Drop {
			t.Fatal("wildcard DropP=1 did not drop")
		}
	}
}

// TestRecordCommitArmsNth: the crash arms exactly at the Nth commit of its
// type and only once.
func TestRecordCommitArmsNth(t *testing.T) {
	pl := &Plan{Seed: 1, TypeCrashes: []TypeCrash{
		{Node: 1, Type: 9, Nth: 3, After: time.Microsecond},
	}}
	for i := 1; i <= 5; i++ {
		armed := pl.RecordCommit(9)
		if i == 3 && len(armed) != 1 {
			t.Fatalf("commit %d armed %d crashes, want 1", i, len(armed))
		}
		if i != 3 && len(armed) != 0 {
			t.Fatalf("commit %d armed %d crashes, want 0", i, len(armed))
		}
	}
	if armed := pl.RecordCommit(8); len(armed) != 0 {
		t.Error("commit of unrelated type armed a crash")
	}
}

// TestPartitionWindow: the partition holds during [From, Until) in both
// directions and nowhere else.
func TestPartitionWindow(t *testing.T) {
	pl := &Plan{Partitions: []Partition{{A: 0, B: 2, From: 10, Until: 20}}}
	cases := []struct {
		now  time.Duration
		a, b int
		want bool
	}{
		{9, 0, 2, false}, {10, 0, 2, true}, {15, 2, 0, true},
		{19, 0, 2, true}, {20, 0, 2, false}, {15, 0, 1, false},
	}
	for _, c := range cases {
		if got := pl.Partitioned(c.now, c.a, c.b); got != c.want {
			t.Errorf("Partitioned(%d, %d, %d) = %v, want %v", c.now, c.a, c.b, got, c.want)
		}
	}
}

// TestSlowLinkWindowAndWildcard: windows apply symmetrically, respect their
// time bounds, and honor Wildcard endpoints; outside links draw nothing.
func TestSlowLinkWindowAndWildcard(t *testing.T) {
	pl := &Plan{Seed: 1, SlowLinks: []SlowLink{
		{A: 0, B: 1, From: 10 * time.Microsecond, Until: 20 * time.Microsecond, Extra: 5 * time.Microsecond},
		{A: 2, B: Wildcard, From: 0, Until: time.Millisecond, Extra: time.Microsecond},
	}}
	if got := pl.SlowExtra(15*time.Microsecond, 0, 1); got != 5*time.Microsecond {
		t.Errorf("inside window 0->1: %v, want 5µs", got)
	}
	if got := pl.SlowExtra(15*time.Microsecond, 1, 0); got != 5*time.Microsecond {
		t.Errorf("inside window 1->0 (symmetric): %v, want 5µs", got)
	}
	if got := pl.SlowExtra(25*time.Microsecond, 0, 1); got != 0 {
		t.Errorf("after window: %v, want 0", got)
	}
	if got := pl.SlowExtra(0, 3, 2); got != time.Microsecond {
		t.Errorf("wildcard link toward 2: %v, want 1µs", got)
	}
	if got := pl.SlowExtra(0, 0, 3); got != 0 {
		t.Errorf("uncovered link: %v, want 0", got)
	}
}

// TestSlowLinkReplayDeterministic: jittered windows draw from the plan RNG
// in query order, so equal seeds stutter identically and a different seed
// diverges — the plan-replay contract gray-failure sweeps rely on.
func TestSlowLinkReplayDeterministic(t *testing.T) {
	mk := func(seed int64) *Plan {
		return &Plan{Seed: seed, SlowLinks: []SlowLink{
			{A: Wildcard, B: Wildcard, From: 0, Until: time.Second, Extra: 10 * time.Microsecond, Jitter: 50 * time.Microsecond},
		}}
	}
	a, b, c := mk(7), mk(7), mk(8)
	same, diverged := true, false
	for i := 0; i < 256; i++ {
		da, db, dc := a.SlowExtra(0, 0, 1), b.SlowExtra(0, 0, 1), c.SlowExtra(0, 0, 1)
		if da != db {
			same = false
		}
		if da != dc {
			diverged = true
		}
		if da <= 10*time.Microsecond || da > 60*time.Microsecond {
			t.Fatalf("draw %d: inflation %v outside (Extra, Extra+Jitter]", i, da)
		}
	}
	if !same {
		t.Error("identical seeds drew different stutter")
	}
	if !diverged {
		t.Error("different seeds never diverged in 256 draws")
	}
}

// TestSlowLinkWithoutJitterLeavesDecideStreamAlone: a jitter-free window
// must not consume RNG draws, so adding it to a plan cannot perturb the
// Decide sequence of the probabilistic rules it composes with.
func TestSlowLinkWithoutJitterLeavesDecideStreamAlone(t *testing.T) {
	rules := []Rule{{From: Wildcard, To: Wildcard, Type: Wildcard, DropP: 0.5, DupP: 0.25, DelayP: 0.25, DelayMax: 10 * time.Microsecond}}
	plain := &Plan{Seed: 9, Rules: rules}
	slow := &Plan{Seed: 9, Rules: rules, SlowLinks: []SlowLink{
		{A: Wildcard, B: Wildcard, From: 0, Until: time.Second, Extra: 5 * time.Microsecond},
	}}
	for i := 0; i < 256; i++ {
		if slow.SlowExtra(0, 0, 1) != 5*time.Microsecond {
			t.Fatal("jitter-free window returned wrong inflation")
		}
		if da, db := plain.Decide(0, 1, 3), slow.Decide(0, 1, 3); da != db {
			t.Fatalf("draw %d: Decide diverged once a jitter-free slow link was added", i)
		}
	}
}

// TestRecordDirCommitArmsNth: an origin crash arms exactly at the Nth
// directory commit of its own kernel, at most once, and other kernels'
// commit streams cannot advance it — the per-kernel counting that makes a
// protocol-relative origin-crash sweep replay deterministically.
func TestRecordDirCommitArmsNth(t *testing.T) {
	pl := &Plan{Seed: 1, OriginCrashes: []CrashOrigin{
		{Node: 0, Nth: 3, After: time.Microsecond},
		{Node: 2, Nth: 2},
	}}
	// Interleave another kernel's commits: they must not advance node 0's
	// count.
	for i := 1; i <= 5; i++ {
		if armed := pl.RecordDirCommit(1); len(armed) != 0 {
			t.Fatalf("commit %d on uncovered kernel armed %d crashes", i, len(armed))
		}
		armed := pl.RecordDirCommit(0)
		if i == 3 {
			if len(armed) != 1 || armed[0].Node != 0 || armed[0].After != time.Microsecond {
				t.Fatalf("commit %d armed %v, want the node-0 crash", i, armed)
			}
		} else if len(armed) != 0 {
			t.Fatalf("commit %d on node 0 armed %d crashes, want 0", i, len(armed))
		}
	}
	// The second entry still arms independently on its own kernel's stream.
	pl.RecordDirCommit(2)
	if armed := pl.RecordDirCommit(2); len(armed) != 1 || armed[0].Node != 2 {
		t.Fatalf("node 2's second commit armed %v, want its crash", armed)
	}
	if armed := pl.RecordDirCommit(2); len(armed) != 0 {
		t.Error("an already-fired origin crash re-armed")
	}
}

// TestRecordDirCommitReplayDeterministic: two identical plans fed the same
// interleaved commit stream arm at the same points.
func TestRecordDirCommitReplayDeterministic(t *testing.T) {
	mk := func() *Plan {
		return &Plan{Seed: 5, OriginCrashes: []CrashOrigin{{Node: 0, Nth: 7}}}
	}
	a, b := mk(), mk()
	for i := 0; i < 32; i++ {
		node := i % 3
		if la, lb := len(a.RecordDirCommit(node)), len(b.RecordDirCommit(node)); la != lb {
			t.Fatalf("step %d: plans diverged (%d vs %d armed)", i, la, lb)
		}
	}
}

// TestStraggle pins the copy-latency bound the dedup table retires by: zero
// for a plan that injects nothing, the longest delay a duplicating or delaying
// rule draws plus every slow-link window's inflation, and — once the plan can
// drop — the link-layer redelivery chain in front of it.
func TestStraggle(t *testing.T) {
	const retries, every = 12, 3 * time.Microsecond
	chain := 78 * every // attempts 1..12, attempt n after n*every
	noisy := Rule{From: Wildcard, To: Wildcard, Type: Wildcard, DropP: 0.1, DupP: 0.2, DelayP: 0.2, DelayMax: 20 * time.Microsecond}
	for _, tc := range []struct {
		name string
		plan Plan
		want time.Duration
	}{
		{"empty", Plan{}, 0},
		{"crashes only", Plan{Crashes: []NodeCrash{{Node: 1, At: time.Millisecond}}}, 0},
		{"drop 0.1 / dup 0.2 / delay 0.2", Plan{Rules: []Rule{noisy}}, 20*time.Microsecond + chain},
		{"delay without drops", Plan{Rules: []Rule{{DelayP: 1, DelayMax: 5 * time.Microsecond}, {DupP: 1, DelayMax: 7 * time.Microsecond}}}, 7 * time.Microsecond},
		{"a DelayMax nothing draws", Plan{Rules: []Rule{{DelayMax: time.Second}}}, 0},
		{"partition", Plan{Partitions: []Partition{{A: 0, B: 1, Until: time.Millisecond}}}, chain},
		{"slow links add up", Plan{SlowLinks: []SlowLink{{Extra: 50 * time.Microsecond, Jitter: 10 * time.Microsecond}, {Extra: time.Microsecond}}}, 61 * time.Microsecond},
	} {
		if got := tc.plan.Straggle(retries, every); got != tc.want {
			t.Errorf("%s: Straggle = %v, want %v", tc.name, got, tc.want)
		}
	}
}
