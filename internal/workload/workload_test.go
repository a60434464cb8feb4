package workload

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/multikernel"
	"repro/internal/osi"
	"repro/internal/sim"
	"repro/internal/smp"
)

// bootPopcorn boots a replicated kernel on the standard test machine.
func bootPopcorn(t *testing.T, cores, nodes, kernels int) *core.OS {
	t.Helper()
	topo := hw.Topology{Cores: cores, NUMANodes: nodes}
	machine, err := hw.NewMachine(topo, hw.DefaultCostModel())
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	cc := kernel.DefaultClusterConfig(machine)
	cc.Kernels = kernels
	cc.FramesPerKernel = 1 << 14
	os, err := core.Boot(core.Config{Topology: topo, Cluster: &cc})
	if err != nil {
		t.Fatalf("Boot popcorn: %v", err)
	}
	t.Cleanup(os.Close)
	return os
}

func bootSMP(t *testing.T, cores, nodes int) *smp.OS {
	t.Helper()
	os, err := smp.Boot(smp.Config{Topology: hw.Topology{Cores: cores, NUMANodes: nodes}, FramesPerNode: 1 << 15})
	if err != nil {
		t.Fatalf("Boot smp: %v", err)
	}
	t.Cleanup(os.Close)
	return os
}

func bootMK(t *testing.T, cores, nodes, kernels int) *multikernel.OS {
	t.Helper()
	os, err := multikernel.Boot(multikernel.Config{
		Topology: hw.Topology{Cores: cores, NUMANodes: nodes},
		Kernels:  kernels, FramesPerKernel: 1 << 14,
	})
	if err != nil {
		t.Fatalf("Boot multikernel: %v", err)
	}
	t.Cleanup(os.Close)
	return os
}

func TestThreadBombPopcornBeatsSMPAtScale(t *testing.T) {
	// The paper's F1 shape: with many concurrent cloners on a big
	// machine, SMP's global locks collapse and the replicated kernel
	// wins; the abstract claims up to 40% faster.
	spec := ThreadBombSpec{Spawners: 32, Children: 8}
	pop := bootPopcorn(t, 64, 2, 8)
	popRes, err := ThreadBomb(pop, spec)
	if err != nil {
		t.Fatalf("popcorn: %v", err)
	}
	sm := bootSMP(t, 64, 2)
	smpRes, err := ThreadBomb(sm, spec)
	if err != nil {
		t.Fatalf("smp: %v", err)
	}
	if popRes.Elapsed >= smpRes.Elapsed {
		t.Fatalf("popcorn %v not faster than smp %v under clone storm", popRes.Elapsed, smpRes.Elapsed)
	}
}

func TestThreadBombUncontendedCompetitive(t *testing.T) {
	// T4 shape: a single uncontended spawner should not be wildly slower
	// on the replicated kernel (factor < 2 of SMP).
	spec := ThreadBombSpec{Spawners: 1, Children: 16}
	pop := bootPopcorn(t, 8, 2, 2)
	popRes, err := ThreadBomb(pop, spec)
	if err != nil {
		t.Fatalf("popcorn: %v", err)
	}
	sm := bootSMP(t, 8, 2)
	smpRes, err := ThreadBomb(sm, spec)
	if err != nil {
		t.Fatalf("smp: %v", err)
	}
	if popRes.Elapsed > 2*smpRes.Elapsed {
		t.Fatalf("uncontended popcorn %v more than 2x smp %v", popRes.Elapsed, smpRes.Elapsed)
	}
}

func TestMmapStormRunsAndScales(t *testing.T) {
	spec := MmapStormSpec{Threads: 16, Iters: 4, Pages: 4}
	pop := bootPopcorn(t, 64, 2, 8)
	popRes, err := MmapStorm(pop, spec)
	if err != nil {
		t.Fatalf("popcorn: %v", err)
	}
	sm := bootSMP(t, 64, 2)
	smpRes, err := MmapStorm(sm, spec)
	if err != nil {
		t.Fatalf("smp: %v", err)
	}
	if popRes.Ops != smpRes.Ops {
		t.Fatalf("ops mismatch: %d vs %d", popRes.Ops, smpRes.Ops)
	}
	// F4 shape: the replicated kernel wins the multi-process map/unmap
	// storm (local TLB shootdowns, partitioned allocators).
	if popRes.Elapsed >= smpRes.Elapsed {
		t.Fatalf("popcorn mmapstorm %v not faster than smp %v", popRes.Elapsed, smpRes.Elapsed)
	}
}

func TestMmapStormSharedProcessHonestlyCostsPopcorn(t *testing.T) {
	// The shared-process variant concentrates VMA ops at the origin
	// kernel: Popcorn should NOT win this one (origin forwarding +
	// update pushes). This documents the design's known trade-off.
	spec := MmapStormSpec{Threads: 8, Iters: 3, Pages: 2, Shared: true}
	pop := bootPopcorn(t, 16, 2, 4)
	popRes, err := MmapStorm(pop, spec)
	if err != nil {
		t.Fatalf("popcorn: %v", err)
	}
	sm := bootSMP(t, 16, 2)
	smpRes, err := MmapStorm(sm, spec)
	if err != nil {
		t.Fatalf("smp: %v", err)
	}
	if popRes.Elapsed <= smpRes.Elapsed {
		t.Logf("note: popcorn unexpectedly won the shared-process storm (%v vs %v)", popRes.Elapsed, smpRes.Elapsed)
	}
}

func TestFaultSweep(t *testing.T) {
	spec := FaultSweepSpec{Threads: 8, Pages: 32}
	pop := bootPopcorn(t, 16, 2, 4)
	popRes, err := FaultSweep(pop, spec)
	if err != nil {
		t.Fatalf("popcorn: %v", err)
	}
	if popRes.Ops != 8*32 {
		t.Fatalf("ops = %d", popRes.Ops)
	}
	sm := bootSMP(t, 16, 2)
	if _, err := FaultSweep(sm, spec); err != nil {
		t.Fatalf("smp: %v", err)
	}
}

func TestFutexChainBothVariants(t *testing.T) {
	pop := bootPopcorn(t, 16, 2, 4)
	res, err := FutexChain(pop, FutexChainSpec{Threads: 8, Iters: 5, CS: time.Microsecond})
	if err != nil {
		t.Fatalf("popcorn partitioned: %v", err)
	}
	if res.Ops != 8*5 {
		t.Fatalf("ops = %d, want 40", res.Ops)
	}
	pop2 := bootPopcorn(t, 16, 2, 4)
	if _, err := FutexChain(pop2, FutexChainSpec{Threads: 8, Iters: 5, CS: time.Microsecond, Shared: true}); err != nil {
		t.Fatalf("popcorn shared: %v", err)
	}
}

func TestComputeKernelUnknownRejected(t *testing.T) {
	pop := bootPopcorn(t, 8, 2, 2)
	if _, err := ComputeKernel(pop, ComputeKernelSpec{Kernel: "lu"}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestMigrationBenefitCrossover(t *testing.T) {
	run := func(pages int, migrate bool) time.Duration {
		pop := bootPopcorn(t, 8, 2, 2)
		res, err := MigrationBenefit(pop, MigrationBenefitSpec{Pages: pages, Rounds: 1, Migrate: migrate})
		if err != nil {
			t.Fatalf("MigrationBenefit(pages=%d, migrate=%v): %v", pages, migrate, err)
		}
		return res.Elapsed
	}
	// With a large data set, following the data wins (F8's right side).
	bigStay, bigGo := run(128, false), run(128, true)
	if bigGo >= bigStay {
		t.Fatalf("large data: migrating (%v) not faster than staying (%v)", bigGo, bigStay)
	}
	// With a single page, staying is at least not catastrophically worse:
	// the crossover exists somewhere in between.
	smallStay, smallGo := run(1, false), run(1, true)
	if smallGo < smallStay {
		// Acceptable: with default costs migration may still pay off; the
		// bench sweeps the crossover. Record but don't fail.
		t.Logf("small data: migrate=%v stay=%v (crossover below 1 page)", smallGo, smallStay)
	}
}

func TestMigrationBenefitRequiresKernels(t *testing.T) {
	sm := bootSMP(t, 8, 2)
	if _, err := MigrationBenefit(sm, MigrationBenefitSpec{Pages: 4, Rounds: 1}); err == nil {
		t.Fatal("single-kernel OS accepted for migration benefit")
	}
}

func TestMKWorkloads(t *testing.T) {
	mk := bootMK(t, 8, 2, 2)
	res, err := MKThreadBomb(mk, ThreadBombSpec{Spawners: 4, Children: 4})
	if err != nil {
		t.Fatalf("MKThreadBomb: %v", err)
	}
	if res.Ops != 16 {
		t.Fatalf("ops = %d", res.Ops)
	}
	mk2 := bootMK(t, 8, 2, 2)
	if _, err := MKMemStorm(mk2, MmapStormSpec{Threads: 4, Iters: 3, Pages: 2}); err != nil {
		t.Fatalf("MKMemStorm: %v", err)
	}
	mk3 := bootMK(t, 8, 2, 2)
	if _, err := MKFaultSweep(mk3, FaultSweepSpec{Threads: 4, Pages: 16}); err != nil {
		t.Fatalf("MKFaultSweep: %v", err)
	}
	for _, k := range []string{KernelIS, KernelCG, KernelFT, KernelEP, KernelMG} {
		mkN := bootMK(t, 8, 2, 2)
		if _, err := MKComputeKernel(mkN, ComputeKernelSpec{Kernel: k, Threads: 4, Iters: 2, Work: 20 * time.Microsecond}); err != nil {
			t.Fatalf("MKComputeKernel %s: %v", k, err)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{OS: "popcorn", Name: "x", Threads: 2, Ops: 1000, Elapsed: time.Second}
	if r.Throughput() != 1000 {
		t.Fatalf("Throughput = %f", r.Throughput())
	}
	if r.PerOp() != time.Millisecond {
		t.Fatalf("PerOp = %v", r.PerOp())
	}
	if (Result{}).Throughput() != 0 || (Result{}).PerOp() != 0 {
		t.Fatal("zero result helpers")
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

// TestDriveReportsLeakedFrames pins the driver's end-of-run check: a run
// that ends with a frame in use fails, naming the OS, the kernel, zone or
// node and the count. On popcorn and smp a touched page stays in a process
// nobody closes. A multikernel domain's exit frees what its page table
// maps, so the domain never exits: it is killed while it waits for mail,
// its page still mapped, as a crash would take it.
func TestDriveReportsLeakedFrames(t *testing.T) {
	unclosed := func(o osi.OS) func(p *sim.Proc) error {
		return func(p *sim.Proc) error {
			pr, err := o.StartProcess(p)
			if err != nil {
				return err
			}
			defer pr.Wait(p)
			return pr.Spawn(p, o.Kernels()-1, func(th osi.Thread) {
				a, _ := th.Mmap(hw.PageSize, mem.ProtRead|mem.ProtWrite)
				if err := th.Store(a, 1); err != nil {
					panic(err)
				}
			})
		}
	}
	pop, sm := bootPopcorn(t, 8, 2, 2), bootSMP(t, 8, 2)
	mk, err := multikernel.Boot(multikernel.Config{Topology: hw.Topology{Cores: 8, NUMANodes: 2}, Kernels: 2, FramesPerKernel: 2})
	if err != nil {
		t.Fatalf("Boot multikernel: %v", err)
	}
	t.Cleanup(mk.Close)
	lose := func(p *sim.Proc) error {
		d, err := mk.SpawnDomain(p, 1, nil, func(d *multikernel.Domain) {
			a, err := d.Alloc(1)
			if err != nil {
				panic(err)
			}
			if err := d.Store(a, 1); err != nil {
				panic(err)
			}
			d.Recv()
		})
		if err != nil {
			return err
		}
		p.Sleep(time.Millisecond)
		d.Proc().Kill()
		return nil
	}
	for _, c := range []struct {
		o    driven
		body func(p *sim.Proc) error
		want string
	}{
		{pop, unclosed(pop), "popcorn: frames in use after the run: k1:1"},
		{sm, unclosed(sm), "smp: frames in use after the run: zone0:1"},
		{mk, lose, "multikernel: frames in use after the run: node1:1"},
	} {
		if err := Drive(c.o, "leak", c.body); err == nil || err.Error() != c.want {
			t.Errorf("%s: Drive = %v, want %q", c.o.Name(), err, c.want)
		}
	}
}
