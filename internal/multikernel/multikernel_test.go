package multikernel

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
)

func boot(t *testing.T, kernels int) *OS {
	t.Helper()
	os, err := Boot(Config{
		Topology:        hw.Topology{Cores: 8, NUMANodes: 2},
		Kernels:         kernels,
		FramesPerKernel: 4096,
	})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	t.Cleanup(os.Close)
	return os
}

func TestBootValidation(t *testing.T) {
	if _, err := Boot(Config{Topology: hw.Topology{Cores: 8, NUMANodes: 2}, Kernels: 3}); err == nil {
		t.Fatal("8 cores over 3 kernels accepted")
	}
	os := boot(t, 4)
	if os.Kernels() != 4 || os.Name() != "multikernel" {
		t.Fatalf("Kernels=%d Name=%q", os.Kernels(), os.Name())
	}
}

func TestDomainPrivateMemory(t *testing.T) {
	os := boot(t, 2)
	e := os.Engine()
	wg := sim.NewWaitGroup()
	e.Spawn("driver", func(p *sim.Proc) {
		_, err := os.SpawnDomain(p, 0, wg, func(d *Domain) {
			addr, err := d.Alloc(2)
			if err != nil {
				t.Errorf("Alloc: %v", err)
				return
			}
			if err := d.Store(addr, 42); err != nil {
				t.Errorf("Store: %v", err)
			}
			if err := d.Store(0xdead000, 1); err == nil {
				t.Error("store to unmapped succeeded")
			}
			if err := d.Free(addr, 2); err != nil {
				t.Errorf("Free: %v", err)
			}
			if err := d.Store(addr, 1); err == nil {
				t.Error("store after free succeeded")
			}
		})
		if err != nil {
			t.Errorf("SpawnDomain: %v", err)
		}
		wg.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestDomainFreeStopsAtUnmappedPage: an unmap over a hole frees the pages
// before it, in page order, and fails at the hole; the pages past it stay
// mapped.
func TestDomainFreeStopsAtUnmappedPage(t *testing.T) {
	os := boot(t, 1)
	e := os.Engine()
	wg := sim.NewWaitGroup()
	e.Spawn("driver", func(p *sim.Proc) {
		_, err := os.SpawnDomain(p, 0, wg, func(d *Domain) {
			frames := d.node.frames.Allocator()
			addr, err := d.Alloc(4)
			if err != nil {
				t.Errorf("Alloc: %v", err)
				return
			}
			page := func(i int) mem.Addr { return addr + mem.Addr(i*hw.PageSize) }
			second, _ := d.pt.Lookup(mem.PageOf(page(1)))
			if err := d.Free(page(2), 1); err != nil {
				t.Errorf("Free of page 2: %v", err)
			}
			want := fmt.Sprintf("multikernel: Free of unmapped page %#x", uint64(page(2)))
			if err := d.Free(addr, 4); err == nil || err.Error() != want {
				t.Errorf("Free over the hole = %v, want %q", err, want)
			}
			if frames.InUse() != 1 {
				t.Errorf("%d frames in use, want 1 (page 3's)", frames.InUse())
			}
			for i, mapped := range []bool{false, false, false, true} {
				if err := d.Store(page(i), 1); (err == nil) != mapped {
					t.Errorf("Store to page %d = %v, want mapped %v", i, err, mapped)
				}
			}
			// Pages 0 and 1 went back in page order, so page 1's frame is
			// the free stack's top.
			again, err := d.Alloc(1)
			if err != nil {
				t.Errorf("Alloc: %v", err)
				return
			}
			if got, _ := d.pt.Lookup(mem.PageOf(again)); got.Frame != second.Frame {
				t.Errorf("next frame = %d, want page 1's %d", got.Frame, second.Frame)
			}
		})
		if err != nil {
			t.Errorf("SpawnDomain: %v", err)
		}
		wg.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestCrossKernelChannels(t *testing.T) {
	os := boot(t, 2)
	e := os.Engine()
	wg := sim.NewWaitGroup()
	e.Spawn("driver", func(p *sim.Proc) {
		echo, err := os.SpawnDomain(p, 1, wg, func(d *Domain) {
			for i := 0; i < 3; i++ {
				payload, size := d.Recv()
				req := payload.(map[string]any)
				reply := req["from"].(*Domain)
				d.Send(reply, size, req["n"].(int)*2)
			}
		})
		if err != nil {
			t.Errorf("SpawnDomain echo: %v", err)
			return
		}
		_, err = os.SpawnDomain(p, 0, wg, func(d *Domain) {
			for i := 1; i <= 3; i++ {
				d.Send(echo, 64, map[string]any{"from": d, "n": i})
				got, _ := d.Recv()
				if got.(int) != i*2 {
					t.Errorf("echo(%d) = %v", i, got)
				}
			}
		})
		if err != nil {
			t.Errorf("SpawnDomain client: %v", err)
		}
		wg.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSameKernelChannelCheaperThanCross(t *testing.T) {
	os := boot(t, 2)
	e := os.Engine()
	wg := sim.NewWaitGroup()
	var localRTT, remoteRTT time.Duration
	e.Spawn("driver", func(p *sim.Proc) {
		mkEcho := func(k int) *Domain {
			d, err := os.SpawnDomain(p, k, wg, func(d *Domain) {
				payload, size := d.Recv()
				d.Send(payload.(*Domain), size, nil)
			})
			if err != nil {
				t.Errorf("SpawnDomain: %v", err)
			}
			return d
		}
		echoLocal := mkEcho(0)
		echoRemote := mkEcho(1)
		_, _ = os.SpawnDomain(p, 0, wg, func(d *Domain) {
			start := d.Proc().Now()
			d.Send(echoLocal, 64, d)
			d.Recv()
			localRTT = d.Proc().Now().Sub(start)
			start = d.Proc().Now()
			d.Send(echoRemote, 64, d)
			d.Recv()
			remoteRTT = d.Proc().Now().Sub(start)
		})
		wg.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if localRTT >= remoteRTT {
		t.Fatalf("local RTT %v not below cross-kernel RTT %v", localRTT, remoteRTT)
	}
}

func TestDomainExitFreesFrames(t *testing.T) {
	os := boot(t, 2)
	e := os.Engine()
	wg := sim.NewWaitGroup()
	e.Spawn("driver", func(p *sim.Proc) {
		_, _ = os.SpawnDomain(p, 0, wg, func(d *Domain) {
			if _, err := d.Alloc(8); err != nil {
				t.Errorf("Alloc: %v", err)
			}
			// Exit without freeing: teardown reclaims.
		})
		wg.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := os.Conserved(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedAllocMapsNothing: an Alloc that runs out of frames part way
// gives back the frames of the pages it had mapped and leaves the bump
// pointer where it was, so the next Alloc finds those frames free and maps
// no page twice.
func TestFailedAllocMapsNothing(t *testing.T) {
	os, err := Boot(Config{Topology: hw.Topology{Cores: 8, NUMANodes: 2}, Kernels: 2, FramesPerKernel: 3})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	t.Cleanup(os.Close)
	e := os.Engine()
	e.Spawn("driver", func(p *sim.Proc) {
		_, _ = os.SpawnDomain(p, 1, nil, func(d *Domain) {
			first, err := d.Alloc(1)
			if err != nil {
				t.Errorf("Alloc(1): %v", err)
				return
			}
			if _, err := d.Alloc(3); err == nil {
				t.Error("Alloc of 3 pages succeeded with 2 frames free")
				return
			}
			if inUse := os.nodes[1].frames.Allocator().InUse(); inUse != 1 {
				t.Errorf("%d frames in use after the failed Alloc, want 1", inUse)
			}
			second, err := d.Alloc(2)
			if err != nil {
				t.Errorf("Alloc(2) after the failed Alloc: %v", err)
				return
			}
			if second != first+hw.PageSize {
				t.Errorf("Alloc(2) mapped at %#x, want %#x right after the first page", uint64(second), uint64(first+hw.PageSize))
			}
			if err := d.Free(first, 3); err != nil {
				t.Errorf("Free of all three pages: %v", err)
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := os.Conserved(); err != nil {
		t.Fatal(err)
	}
}

// TestBootRejectsMachineBeyondPTE: a PTE holds a 32-bit frame number and an
// 8-bit NUMA node; boot refuses a machine past either, and a kernel's
// partition larger than the stride between partitions.
func TestBootRejectsMachineBeyondPTE(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Topology: hw.Topology{Cores: 8, NUMANodes: 2}, Kernels: 2, FramesPerKernel: 1<<31 - 1}, "the stride between parts"},
		{Config{Topology: hw.Topology{Cores: 128, NUMANodes: 128}, Kernels: 128, FramesPerKernel: 1 << 24}, "do not fit a 32-bit frame number"},
		{Config{Topology: hw.Topology{Cores: 512, NUMANodes: 512}, Kernels: 2}, "NUMA node 256 does not fit"},
	} {
		if os, err := Boot(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Boot(%+v) = %v, want a refusal containing %q", tc.cfg, err, tc.want)
			if err == nil {
				os.Close()
			}
		}
	}
}

func TestSpawnDomainValidation(t *testing.T) {
	os := boot(t, 2)
	e := os.Engine()
	e.Spawn("driver", func(p *sim.Proc) {
		if _, err := os.SpawnDomain(p, 9, nil, func(*Domain) {}); err == nil {
			t.Error("SpawnDomain on bogus kernel accepted")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestTryRecvAndDropAccounting(t *testing.T) {
	os := boot(t, 2)
	e := os.Engine()
	wg := sim.NewWaitGroup()
	e.Spawn("driver", func(p *sim.Proc) {
		var peer *Domain
		ready := sim.NewWaitGroup()
		ready.Add(1)
		d1, err := os.SpawnDomain(p, 0, wg, func(d *Domain) {
			ready.Done()
			payload, size := d.Recv()
			if payload.(string) != "hi" || size != 16 {
				t.Errorf("Recv = %v, %d", payload, size)
			}
			// The second message is in flight; give the fabric time.
			d.Proc().Sleep(20 * time.Microsecond)
			if len(d.inbox) != 1 {
				t.Errorf("inbox holds %d messages, want the second one queued", len(d.inbox))
			}
			if v, _ := d.Recv(); v.(string) != "again" {
				t.Errorf("Recv = %v, want again", v)
			}
		})
		if err != nil {
			t.Errorf("SpawnDomain: %v", err)
			return
		}
		peer = d1
		_, _ = os.SpawnDomain(p, 1, wg, func(d *Domain) {
			ready.Wait(d.Proc())
			d.Send(peer, 16, "hi")
			d.Send(peer, 8, "again")
		})
		wg.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
