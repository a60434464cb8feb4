package msg

import (
	"strings"
	"testing"
	"time"

	"repro/internal/faultinj"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestStaleIncarnationMessageFencedAfterRejoin is the fencing unit test: a
// message stamped with a kernel's pre-crash incarnation that surfaces after
// the kernel rebooted (a zombie grant, reply, or notification that sat in a
// delay queue across the crash) must be discarded by the fence, while a
// message stamped with the current incarnation pair goes through. The
// crash and the reboot each leave one zero-length span on the collector.
func TestStaleIncarnationMessageFencedAfterRejoin(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	plan := &faultinj.Plan{
		Seed:    1,
		Crashes: []faultinj.NodeCrash{{Node: 1, At: time.Millisecond}},
		Heals:   []faultinj.NodeHeal{{Node: 1, At: 1500 * time.Microsecond}},
	}
	f := faultFabric(t, e, plan)
	col := trace.NewCollector()
	f.SetCollector(col)
	handled := 0
	f.Endpoint(1).Handle(TypeUser, func(p *sim.Proc, m *Message) *Message {
		handled++
		return nil
	})
	e.Spawn("zombie", func(p *sim.Proc) {
		p.Sleep(3 * time.Millisecond) // well past the crash/heal cycle
		// A zombie from kernel 1's first incarnation: stamped (1,1) when it
		// was prepared, surfacing only now. The fence must drop it.
		f.deliver(&Message{Type: TypeUser, From: 0, To: 1, Seq: 9001, Size: 8, SrcInc: 1, DstInc: 1})
		// The same message stamped against the rebooted incarnation passes.
		f.deliver(&Message{Type: TypeUser, From: 0, To: 1, Seq: 9002, Size: 8, SrcInc: 1, DstInc: 2})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := f.Incarnation(1); got != 2 {
		t.Fatalf("Incarnation(1) = %d after one reboot, want 2", got)
	}
	if handled != 1 {
		t.Fatalf("handler ran %d times, want 1 (stale-incarnation message not fenced)", handled)
	}
	if got := f.metrics.Counter("msg.fault.fenced").Value(); got != 1 {
		t.Errorf("msg.fault.fenced = %d, want 1", got)
	}
	if got := f.metrics.Counter("msg.fault.fenced.k0-k1").Value(); got != 1 {
		t.Errorf("per-link fenced counter = %d, want 1", got)
	}
	want := map[string]sim.Time{"fault.crash": sim.Time(time.Millisecond), "fault.heal": sim.Time(1500 * time.Microsecond)}
	for _, sp := range col.Spans() {
		at, ok := want[sp.Name]
		if !strings.HasPrefix(sp.Name, "fault.") {
			continue
		}
		if !ok || sp.Node != 1 || sp.Begin != at || sp.End != at {
			t.Errorf("span %v, want one zero-length fault.crash on k1 at 1ms and one fault.heal on k1 at 1.5ms", sp)
		}
		delete(want, sp.Name)
	}
	if len(want) != 0 {
		t.Errorf("no span for %v", want)
	}
}

// TestStaleCallFailsFastOnRejoin starts an RPC into a kernel's dead window.
// The request is stamped with the pre-reboot incarnation, so no reply can
// ever come; the rejoin handshake must cut the caller loose with a
// DeadPeerError instead of letting it burn the full retry schedule — and a
// fresh call after the rejoin must succeed.
func TestStaleCallFailsFastOnRejoin(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	plan := &faultinj.Plan{
		Seed:    1,
		Crashes: []faultinj.NodeCrash{{Node: 1, At: time.Millisecond}},
		Heals:   []faultinj.NodeHeal{{Node: 1, At: 1500 * time.Microsecond}},
	}
	f := faultFabric(t, e, plan)
	handled := 0
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		handled++
		return &Message{Size: 8}
	})
	var staleErr, freshErr error
	e.Spawn("caller", func(p *sim.Proc) {
		p.Sleep(1200 * time.Microsecond) // inside the dead window
		_, staleErr = f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: 8})
		p.Sleep(2 * time.Millisecond) // well past the rejoin
		_, freshErr = f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: 8})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !IsDeadPeer(staleErr) {
		t.Fatalf("stale call error = %v, want DeadPeerError", staleErr)
	}
	if freshErr != nil {
		t.Fatalf("fresh call after rejoin failed: %v", freshErr)
	}
	if handled != 1 {
		t.Errorf("handler ran %d times, want exactly 1 (the post-rejoin call)", handled)
	}
	if f.metrics.Counter("msg.fault.stalecall").Value() == 0 {
		t.Error("rejoin did not fail the stale pending call")
	}
	// The heal beat every detector to a verdict, so each of the three
	// survivors owes the dead incarnation a reclamation sweep at rejoin.
	if got := f.metrics.Counter("msg.fault.rejoin-sweep").Value(); got != 3 {
		t.Errorf("msg.fault.rejoin-sweep = %d, want 3 (one per survivor)", got)
	}
	if got := f.metrics.Counter("msg.fault.rejoined").Value(); got != 3 {
		t.Errorf("msg.fault.rejoined = %d, want 3", got)
	}
	if got := f.metrics.Counter("msg.fault.declared").Value(); got != 0 {
		t.Errorf("msg.fault.declared = %d, want 0 (heal preempted every verdict)", got)
	}
}

// TestRejoinAfterDeclaration lets every survivor's detector reach its
// verdict before the kernel heals: the rejoin must clear the declared-dead
// state (without a second reclamation sweep — the declaration already ran
// one) and traffic with the rebooted kernel must flow again.
func TestRejoinAfterDeclaration(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	plan := &faultinj.Plan{
		Seed:    1,
		Crashes: []faultinj.NodeCrash{{Node: 1, At: 100 * time.Microsecond}},
		Heals:   []faultinj.NodeHeal{{Node: 1, At: 4 * time.Millisecond}},
	}
	f := faultFabric(t, e, plan)
	handled := 0
	f.Endpoint(1).Handle(TypePing, func(p *sim.Proc, m *Message) *Message {
		handled++
		return &Message{Size: 8}
	})
	var callErr error
	e.Spawn("caller", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		_, callErr = f.Endpoint(0).Call(p, &Message{Type: TypePing, To: 1, Size: 8})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := f.metrics.Counter("msg.fault.declared").Value(); got != 3 {
		t.Fatalf("msg.fault.declared = %d, want 3 (every survivor reaches a verdict first)", got)
	}
	if callErr != nil {
		t.Fatalf("call to rejoined kernel: %v", callErr)
	}
	if handled != 1 {
		t.Errorf("handler ran %d times, want 1", handled)
	}
	if got := f.metrics.Counter("msg.fault.rejoin-sweep").Value(); got != 0 {
		t.Errorf("msg.fault.rejoin-sweep = %d, want 0 (declaration already swept)", got)
	}
	if got := f.metrics.Counter("msg.fault.rejoined").Value(); got != 3 {
		t.Errorf("msg.fault.rejoined = %d, want 3", got)
	}
	if got := f.Incarnation(1); got != 2 {
		t.Errorf("Incarnation(1) = %d, want 2", got)
	}
	if f.Crashed(1) {
		t.Error("kernel 1 still marked crashed after heal")
	}
}

// TestRecrashAfterHeal pins the detector lifecycle across a heal: a kernel
// that crashes, reboots, and crashes again must be re-detected and
// re-declared by every survivor — the first window's detectors must not
// have wedged the machinery in a "never again" state.
func TestRecrashAfterHeal(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	plan := &faultinj.Plan{
		Seed: 1,
		Crashes: []faultinj.NodeCrash{
			{Node: 1, At: 500 * time.Microsecond},
			{Node: 1, At: 1500 * time.Microsecond},
		},
		Heals: []faultinj.NodeHeal{{Node: 1, At: time.Millisecond}},
	}
	f := faultFabric(t, e, plan)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !f.Crashed(1) {
		t.Fatal("kernel 1 not crashed after the second crash")
	}
	if got := f.Incarnation(1); got != 2 {
		t.Errorf("Incarnation(1) = %d, want 2 (one completed heal)", got)
	}
	if got := f.metrics.Counter("msg.fault.heal").Value(); got != 1 {
		t.Errorf("msg.fault.heal = %d, want 1", got)
	}
	if got := f.metrics.Counter("msg.fault.declared").Value(); got != 3 {
		t.Errorf("msg.fault.declared = %d, want 3: every survivor must re-declare after the re-crash", got)
	}
}

// TestPartitionCloseResetsDetector is the false-declaration regression: a
// partition shorter than DeadAfter opens while failure detection is live
// (another kernel crashed), and the silence it causes must not be charged
// to the partitioned peer once the window closes. Without the close-time
// silence reset, kernel 0's detector declares the healed kernel 1 dead from
// pre-heal misses at its first poll after the window.
func TestPartitionCloseResetsDetector(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	plan := &faultinj.Plan{
		Seed:       1,
		Crashes:    []faultinj.NodeCrash{{Node: 3, At: 100 * time.Microsecond}},
		Partitions: []faultinj.Partition{{A: 0, B: 1, From: 0, Until: 2450 * time.Microsecond}},
	}
	f := faultFabric(t, e, plan)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, link := range []string{"msg.fault.declared.k0-k1", "msg.fault.declared.k1-k0"} {
		if got := f.metrics.Counter(link).Value(); got != 0 {
			t.Errorf("%s = %d, want 0: the partition healed inside DeadAfter, neither end may declare the other", link, got)
		}
	}
	// The crashed kernel is still declared by all three survivors.
	if got := f.metrics.Counter("msg.fault.declared").Value(); got != 3 {
		t.Errorf("msg.fault.declared = %d, want 3 (only kernel 3, by each survivor)", got)
	}
	// The long silence put the partitioned pair into the suspicion band
	// before the window closed, and the close cleared it.
	if f.metrics.Counter("msg.fault.suspected.k0-k1").Value() == 0 {
		t.Error("kernel 0 never suspected its partitioned peer")
	}
	if f.metrics.Counter("msg.fault.unsuspected.k0-k1").Value() == 0 {
		t.Error("suspicion of the partitioned peer was never cleared")
	}
}

// TestHealOfLiveKernelIsNoOp pins NodeHeal's documented semantics: healing
// a kernel that never crashed does nothing — no incarnation bump, no
// handshake — so crash/heal pairs can be scheduled independently.
func TestHealOfLiveKernelIsNoOp(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	plan := &faultinj.Plan{
		Seed:  1,
		Heals: []faultinj.NodeHeal{{Node: 2, At: 500 * time.Microsecond}},
	}
	f := faultFabric(t, e, plan)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := f.Incarnation(2); got != 1 {
		t.Errorf("Incarnation(2) = %d, want 1 (no-op heal must not bump)", got)
	}
	if got := f.metrics.Counter("msg.fault.heal").Value(); got != 0 {
		t.Errorf("msg.fault.heal = %d, want 0", got)
	}
	if got := f.metrics.Counter("msg.fault.rejoined").Value(); got != 0 {
		t.Errorf("msg.fault.rejoined = %d, want 0", got)
	}
}
