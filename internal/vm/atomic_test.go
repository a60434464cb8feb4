package vm

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
)

func TestCompareAndSwap(t *testing.T) {
	ev := newEnv(t, 2, 64)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, _ := sps[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		swapped, err := sps[0].CompareAndSwap(p, 0, addr, 0, 10)
		if err != nil || !swapped {
			t.Fatalf("CAS(0->10) = %v, %v", swapped, err)
		}
		swapped, err = sps[0].CompareAndSwap(p, 0, addr, 0, 20)
		if err != nil || swapped {
			t.Fatalf("CAS with wrong old = %v, %v; want false", swapped, err)
		}
		if v, _ := sps[0].Load(p, 0, addr); v != 10 {
			t.Fatalf("value = %d, want 10", v)
		}
		// CAS from another kernel must see the current value.
		swapped, err = sps[1].CompareAndSwap(p, 2, addr, 10, 30)
		if err != nil || !swapped {
			t.Fatalf("remote CAS = %v, %v", swapped, err)
		}
		if v, _ := sps[0].Load(p, 0, addr); v != 30 {
			t.Fatalf("value after remote CAS = %d, want 30", v)
		}
	})
}

func TestCASOnReadOnlyFails(t *testing.T) {
	ev := newEnv(t, 1, 64)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, _ := sps[0].Map(p, hw.PageSize, mem.ProtRead)
		if _, err := sps[0].CompareAndSwap(p, 0, addr, 0, 1); err == nil {
			t.Fatal("CAS on read-only page succeeded")
		}
	})
}

func TestFetchAddAtomicAcrossKernels(t *testing.T) {
	// Concurrent FetchAdds from all kernels must not lose increments —
	// the classic shared-counter test the MSI protocol must pass.
	const perKernel = 50
	ev := newEnv(t, 4, 64)
	sps := ev.group(t, 1)
	wg := sim.NewWaitGroup()
	wg.Add(4)
	ev.e.Spawn("driver", func(p *sim.Proc) {
		addr, err := sps[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		if err != nil {
			t.Errorf("Map: %v", err)
			return
		}
		for k := 0; k < 4; k++ {
			k := k
			ev.e.Spawn("adder", func(ap *sim.Proc) {
				defer wg.Done()
				for i := 0; i < perKernel; i++ {
					if _, err := sps[k].FetchAdd(ap, 2*k, addr, 1); err != nil {
						t.Errorf("kernel %d FetchAdd: %v", k, err)
						return
					}
				}
			})
		}
		wg.Wait(p)
		if v, err := sps[0].Load(p, 0, addr); err != nil || v != 4*perKernel {
			t.Errorf("counter = %d, %v; want %d", v, err, 4*perKernel)
		}
	})
	if err := ev.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestTouchWriteKeepsValue(t *testing.T) {
	ev := newEnv(t, 1, 64)
	sps := ev.group(t, 1)
	ev.run(t, func(p *sim.Proc) {
		addr, _ := sps[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite)
		_ = sps[0].Store(p, 0, addr, 123)
		if _, err := sps[0].FetchAdd(p, 0, addr, 0); err != nil {
			t.Fatalf("FetchAdd(0): %v", err)
		}
		if v, _ := sps[0].Load(p, 0, addr); v != 123 {
			t.Fatalf("FetchAdd(0) clobbered value: %d", v)
		}
	})
}
