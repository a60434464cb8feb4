package kernel

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

func testMachine(t *testing.T) *hw.Machine {
	t.Helper()
	m, err := hw.NewMachine(hw.Topology{Cores: 8, NUMANodes: 2}, hw.DefaultCostModel())
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

func TestBootPartitionsCoresAndMemory(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m := testMachine(t)
	cfg := DefaultClusterConfig(m)
	cfg.Kernels = 4
	cfg.FramesPerKernel = 1024
	cl, err := Boot(e, m, cfg, stats.NewRegistry())
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	if len(cl.Kernels) != 4 {
		t.Fatalf("kernels = %d", len(cl.Kernels))
	}
	seen := make(map[int]bool)
	for k, kn := range cl.Kernels {
		if kn.Sched.Cores() != 2 {
			t.Fatalf("kernel %d has %d cores, want 2", k, kn.Sched.Cores())
		}
		for _, c := range kn.Sched.CoreIDs() {
			if seen[c] {
				t.Fatalf("core %d assigned to two kernels", c)
			}
			seen[c] = true
		}
		if kn.Frames.Allocator().Available() != 1024 {
			t.Fatalf("kernel %d has %d frames", k, kn.Frames.Allocator().Available())
		}
	}
	if len(seen) != 8 {
		t.Fatalf("assigned %d cores, want 8", len(seen))
	}
}

func TestBootValidation(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m := testMachine(t)
	cfg := DefaultClusterConfig(m)
	cfg.Kernels = 3 // 8 cores don't split by 3
	if _, err := Boot(e, m, cfg, nil); err == nil {
		t.Error("uneven core split accepted")
	}
	cfg = DefaultClusterConfig(m)
	cfg.Kernels = 0
	if _, err := Boot(e, m, cfg, nil); err == nil {
		t.Error("zero kernels accepted")
	}
	cfg = DefaultClusterConfig(m)
	cfg.FramesPerKernel = 0
	if _, err := Boot(e, m, cfg, nil); err == nil {
		t.Error("zero frames accepted")
	}
	cfg = DefaultClusterConfig(m)
	cfg.Kernels = 65 // one more than a directory's sharer set holds
	if _, err := Boot(e, m, cfg, nil); err == nil || !strings.Contains(err.Error(), "64") {
		t.Errorf("65 kernels: %v, want the 64-kernel limit", err)
	}
}

// TestBootRejectsMachineBeyondPTE: a PTE holds a 32-bit frame number and an
// 8-bit NUMA node, so the carve-up refuses a part past the frame space and
// boot refuses a kernel homed on a node past 255, before the kernel runs.
func TestBootRejectsMachineBeyondPTE(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	newMachine := func(nodes int) *hw.Machine {
		m, err := hw.NewMachine(hw.Topology{Cores: nodes, NUMANodes: nodes}, hw.DefaultCostModel())
		if err != nil {
			t.Fatalf("NewMachine: %v", err)
		}
		return m
	}
	// Part 127 ends at frame 1<<31. A cluster holds only 64 kernels, so the
	// frame space is reached through Carve.
	if _, err := Carve(e, newMachine(128), 128, frameStride); err == nil || !strings.Contains(err.Error(), "do not fit a 32-bit frame number") {
		t.Errorf("Carve into 128 parts of %d frames = %v, want a frame-space refusal", frameStride, err)
	}
	cfg := DefaultClusterConfig(testMachine(t))
	cfg.FramesPerKernel = 1<<31 - 1
	if _, err := Boot(e, testMachine(t), cfg, nil); err == nil || !strings.Contains(err.Error(), "the stride between parts") {
		t.Errorf("Boot with %d frames per kernel = %v, want a stride refusal", cfg.FramesPerKernel, err)
	}
	wide := newMachine(512)
	cfg = DefaultClusterConfig(wide)
	cfg.Kernels = 2
	if _, err := Boot(e, wide, cfg, nil); err == nil || !strings.Contains(err.Error(), "NUMA node 256 does not fit") {
		t.Errorf("Boot with kernel 1 on NUMA node 256 = %v, want a node refusal", err)
	}
}

func TestDefaultClusterConfigOneKernelPerNode(t *testing.T) {
	m := testMachine(t)
	cfg := DefaultClusterConfig(m)
	if cfg.Kernels != 2 {
		t.Fatalf("default kernels = %d, want one per NUMA node", cfg.Kernels)
	}
}

func TestLockedFramesChargesAndAccounts(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m := testMachine(t)
	alloc, _ := mem.NewFrameAllocator(0, 0, 8)
	lf := newLockedFrames(e, m, alloc, 4)
	e.Spawn("p", func(p *sim.Proc) {
		start := p.Now()
		fr, node, err := lf.AllocFrame(p)
		if err != nil {
			t.Errorf("AllocFrame: %v", err)
			return
		}
		if node != 0 {
			t.Errorf("home node = %d", node)
		}
		if p.Now() == start {
			t.Error("allocation charged no time")
		}
		lf.FreeFrame(p, fr)
		if alloc.InUse() != 0 {
			t.Error("frame not returned")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if lf.LockStats().Acquisitions != 2 {
		t.Fatalf("lock acquisitions = %d, want 2", lf.LockStats().Acquisitions)
	}

	// Contended: three processes allocate at once and each frees its frame
	// as soon as it has it, so every free but the last queues behind an
	// allocation. A holder's charge is b(k) for the k processes queued then.
	e2 := sim.NewEngine()
	defer e2.Close()
	lf = newLockedFrames(e2, m, alloc, 4)
	for i := 0; i < 3; i++ {
		e2.Spawn("p", func(p *sim.Proc) {
			fr, _, err := lf.AllocFrame(p)
			if err != nil {
				t.Errorf("AllocFrame: %v", err)
				return
			}
			lf.FreeFrame(p, fr)
		})
	}
	if err := e2.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	b := func(k int) time.Duration { return m.LineBounce(k, 4, false) + m.Cost.FrameAlloc }
	// Holds in order: p1 alloc b(0); p2 alloc b(2); p3 alloc b(2); p1 free
	// b(2); p2 free b(1); p3 free b(0). Waits: p2 b(0), p3 b(0)+b(2), then
	// the frees 2·b(2), 2·b(2) and b(2)+b(1).
	want := sim.LockStats{
		Acquisitions: 6,
		Contended:    5,
		TotalWait:    2*b(0) + 6*b(2) + b(1),
		MaxWait:      max(b(0)+b(2), 2*b(2), b(2)+b(1)),
		TotalHold:    2*b(0) + 3*b(2) + b(1),
		MaxQueue:     2,
	}
	if got := lf.LockStats(); got != want {
		t.Fatalf("contended zone lock stats = %+v, want %+v", got, want)
	}
	if e2.Now() != sim.Time(want.TotalHold) {
		t.Fatalf("the six holds ended at %v, want %v back to back", e2.Now(), want.TotalHold)
	}
	lf.Reset()
	if got := lf.LockStats(); got != (sim.LockStats{}) {
		t.Fatalf("zone lock stats after Reset = %+v, want zero", got)
	}
}

// TestLockedFramesDropIsFree pins DropFrame: the frame goes back without a
// lock acquisition or a charge, and dropping it twice panics like a double
// free.
func TestLockedFramesDropIsFree(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m := testMachine(t)
	alloc, _ := mem.NewFrameAllocator(0, 0, 8)
	lf := newLockedFrames(e, m, alloc, 4)
	e.Spawn("p", func(p *sim.Proc) {
		fr, _, err := lf.AllocFrame(p)
		if err != nil {
			t.Errorf("AllocFrame: %v", err)
			return
		}
		start := p.Now()
		lf.DropFrame(fr)
		if p.Now() != start {
			t.Errorf("DropFrame charged %v", p.Now()-start)
		}
		if alloc.InUse() != 0 || alloc.Available() != 8 {
			t.Errorf("after drop: %d in use, %d available; want 0, 8", alloc.InUse(), alloc.Available())
		}
		defer func() {
			if recover() == nil {
				t.Error("second DropFrame of one frame did not panic")
			}
		}()
		lf.DropFrame(fr)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if lf.LockStats().Acquisitions != 1 {
		t.Fatalf("lock acquisitions = %d, want 1 (the allocation only)", lf.LockStats().Acquisitions)
	}
}

func TestLockedFramesContentionCostsGrow(t *testing.T) {
	// N concurrent allocators on one lock: total elapsed grows superlinearly
	// with contenders (the zone-lock effect).
	elapsed := func(n int) sim.Time {
		e := sim.NewEngine()
		defer e.Close()
		m := testMachine(t)
		alloc, _ := mem.NewFrameAllocator(0, 0, 1024)
		lf := newLockedFrames(e, m, alloc, 8)
		for i := 0; i < n; i++ {
			e.Spawn("a", func(p *sim.Proc) {
				for j := 0; j < 16; j++ {
					if _, _, err := lf.AllocFrame(p); err != nil {
						t.Errorf("AllocFrame: %v", err)
						return
					}
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return e.Now()
	}
	one, eight := elapsed(1), elapsed(8)
	if eight <= 8*one {
		t.Fatalf("8 contenders (%v) not slower than 8x serial single (%v): no contention modelled", eight, 8*one)
	}
}

func TestLockedFramesExhaustionError(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m := testMachine(t)
	alloc, _ := mem.NewFrameAllocator(0, 0, 1)
	lf := newLockedFrames(e, m, alloc, 4)
	e.Spawn("p", func(p *sim.Proc) {
		if _, _, err := lf.AllocFrame(p); err != nil {
			t.Errorf("first alloc: %v", err)
		}
		if _, _, err := lf.AllocFrame(p); err == nil {
			t.Error("exhausted allocator succeeded")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestDeadlockReportNamesZoneLock: a process stuck on a frame zone's lock is
// reported against kernel.frames, before and after a reboot replaces the
// lock.
func TestDeadlockReportNamesZoneLock(t *testing.T) {
	for _, reboot := range []bool{false, true} {
		e := sim.NewEngine()
		alloc, _ := mem.NewFrameAllocator(0, 0, 8)
		lf := newLockedFrames(e, testMachine(t), alloc, 4)
		if reboot {
			lf.Reset()
		}
		e.Spawn("holder", func(p *sim.Proc) {
			lf.mu.Lock(p)
			p.Suspend()
		})
		e.Spawn("stuck", func(p *sim.Proc) {
			p.Sleep(time.Microsecond)
			_, _, _ = lf.AllocFrame(p)
		})
		var dl *sim.DeadlockError
		if err := e.Run(); !errors.As(err, &dl) {
			t.Fatalf("reboot %v: Run = %v, want a deadlock", reboot, err)
		}
		if !slices.ContainsFunc(dl.Waits, func(w sim.ProcWait) bool {
			return w.Name == "stuck" && w.Resource == "kernel.frames" && w.HolderName == "holder"
		}) {
			t.Errorf("reboot %v: report does not name kernel.frames held by holder: %+v", reboot, dl.Waits)
		}
		e.Close()
	}
}

// TestCarveGeometry: over a sweep of machines and part counts, Carve puts
// every core in exactly one part, in order, gives the parts disjoint,
// ascending frame ranges, homes each part on its first core's node, and
// lets exactly the part's cores contend for its zone.
func TestCarveGeometry(t *testing.T) {
	for _, topo := range []hw.Topology{{Cores: 1, NUMANodes: 1}, {Cores: 8, NUMANodes: 2}, {Cores: 12, NUMANodes: 3}, {Cores: 64, NUMANodes: 2}, {Cores: 64, NUMANodes: 8}} {
		m, err := hw.NewMachine(topo, hw.DefaultCostModel())
		if err != nil {
			t.Fatalf("NewMachine(%+v): %v", topo, err)
		}
		for n := 1; n <= topo.Cores; n++ {
			if topo.Cores%n != 0 {
				continue
			}
			for _, frames := range []int{1, 1000, frameStride} {
				e := sim.NewEngine()
				parts, err := Carve(e, m, n, frames)
				if err != nil {
					t.Fatalf("%+v into %d parts of %d frames: %v", topo, n, frames, err)
				}
				next, end := 0, mem.FrameID(0)
				for k, part := range parts {
					for _, c := range part.Cores {
						if c != next {
							t.Fatalf("%+v into %d: part %d has core %d, want %d", topo, n, k, c, next)
						}
						next++
					}
					a := part.Frames.Allocator()
					if a.Available() != frames {
						t.Fatalf("%+v into %d: part %d has %d frames, want %d", topo, n, k, a.Available(), frames)
					}
					lo, err := a.Alloc() // a fresh zone hands out its first frame first
					if err != nil || a.Free(lo) != nil {
						t.Fatalf("%+v into %d: part %d: Alloc/Free: %v", topo, n, k, err)
					}
					hi := lo + mem.FrameID(frames)
					if lo < end {
						t.Fatalf("%+v into %d: part %d has frames [%d,%d), the one before ended at %d", topo, n, k, lo, hi, end)
					}
					end = hi
					if a.Node() != topo.NodeOf(part.Cores[0]) {
						t.Fatalf("%+v into %d: part %d is homed on node %d, its first core %d on %d", topo, n, k, a.Node(), part.Cores[0], topo.NodeOf(part.Cores[0]))
					}
					if part.Frames.cores != len(part.Cores) {
						t.Fatalf("%+v into %d: part %d's zone has %d contenders, want its %d cores", topo, n, k, part.Frames.cores, len(part.Cores))
					}
				}
				if next != topo.Cores {
					t.Fatalf("%+v into %d: parts hold %d cores, want %d", topo, n, next, topo.Cores)
				}
				e.Close()
			}
		}
	}
}
