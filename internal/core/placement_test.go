package core

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/osi"
	"repro/internal/sim"
)

func bootFourKernels(t *testing.T) *OS {
	t.Helper()
	topo := hw.Topology{Cores: 8, NUMANodes: 2}
	machine, err := hw.NewMachine(topo, hw.DefaultCostModel())
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	cc := kernel.DefaultClusterConfig(machine)
	cc.Kernels = 4
	cc.FramesPerKernel = 4096
	os, err := Boot(Config{Topology: topo, Cluster: &cc})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	t.Cleanup(os.Close)
	return os
}

func TestRoundRobinIgnoresLoad(t *testing.T) {
	os := bootFourKernels(t)
	e := os.Engine()
	hit0 := 0
	e.Spawn("driver", func(p *sim.Proc) {
		pr, _ := os.StartProcessOn(p, 0)
		for i := 0; i < 4; i++ {
			_ = pr.Spawn(p, 0, func(th osi.Thread) { th.Compute(time.Millisecond) })
		}
		p.Sleep(10 * time.Microsecond)
		for i := 0; i < 4; i++ {
			_ = pr.Spawn(p, osi.AnyKernel, func(th osi.Thread) {
				if th.KernelID() == 0 {
					hit0++
				}
			})
		}
		pr.Wait(p)
		_ = pr.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if hit0 == 0 {
		t.Fatal("round robin never placed on kernel 0; expected exactly one of four")
	}
}
